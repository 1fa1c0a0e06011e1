(** Tests for the race predictor and DRF/NPDRF (Fig. 9, §5). *)

open Cas_base
open Cas_langs
open Cas_conc

let check = Alcotest.check
let tbool = Alcotest.bool

let load p =
  match World.load p ~args:[] with
  | Error e -> Alcotest.failf "load: %a" World.pp_load_error e
  | Ok w -> w

(* ------------------------------------------------------------------ *)

let test_racy_counter_detected () =
  let r = Race.drf (load (Corpus.racy_prog ())) in
  check tbool "racy counter detected" false r.Race.drf;
  match r.Race.witness with
  | Some (t1, _, t2, _) -> check tbool "distinct threads" true (t1 <> t2)
  | None -> Alcotest.fail "expected witness"

let test_locked_counter_drf () =
  let r = Race.drf (load (Corpus.lock_counter_prog ())) in
  check tbool "locked counter is DRF" true r.Race.drf

let test_write_write_race () =
  let p =
    Lang.prog
      [ Lang.Mod (Clight.lang, Parse.clight {| int x = 0; void f() { x = 1; } |}) ]
      [ "f"; "f" ]
  in
  let r = Race.drf (load p) in
  check tbool "write/write race" false r.Race.drf

let test_read_read_no_race () =
  let p =
    Lang.prog
      [ Lang.Mod (Clight.lang, Parse.clight {| int x = 0; void f() { print(x); } |}) ]
      [ "f"; "f" ]
  in
  let r = Race.drf (load p) in
  check tbool "read/read is no race" true r.Race.drf

let test_disjoint_writes_no_race () =
  let m1 = Parse.clight {| int x = 0; int y = 0; void f() { x = 1; } |} in
  let m2 = Parse.clight {| int x = 0; int y = 0; void g() { y = 1; } |} in
  let p = Lang.prog [ Lang.Mod (Clight.lang, m1); Lang.Mod (Clight.lang, m2) ] [ "f"; "g" ] in
  let r = Race.drf (load p) in
  check tbool "disjoint writes" true r.Race.drf

let test_atomic_blocks_no_race () =
  (* two CImp threads updating the same cell inside atomic blocks *)
  let g =
    Parse.cimp
      {| object int C = 0;
         void bump() { atomic { r := [C]; [C] := r + 1; } } |}
  in
  let p = Lang.prog [ Lang.Mod (Cimp.lang, g) ] [ "bump"; "bump" ] in
  let r = Race.drf (load p) in
  check tbool "atomic updates race-free" true r.Race.drf

let test_atomic_vs_plain_races () =
  (* same cell: one thread atomic, one plain — still a race (d2 = 0) *)
  let g =
    Parse.cimp
      {| object int C = 0;
         void bump() { atomic { r := [C]; [C] := r + 1; } }
         void plain() { r := [C]; [C] := r + 1; } |}
  in
  let p = Lang.prog [ Lang.Mod (Cimp.lang, g) ] [ "bump"; "plain" ] in
  let r = Race.drf (load p) in
  check tbool "atomic vs plain races" false r.Race.drf

let test_predict_atomic_footprint () =
  (* Predict-1 accumulates the whole atomic block's footprint *)
  let g =
    Parse.cimp
      {| object int C = 0;
         void bump() { atomic { r := [C]; [C] := r + 1; } } |}
  in
  let p = Lang.prog [ Lang.Mod (Cimp.lang, g) ] [ "bump" ] in
  let w = load p in
  match Race.predict w 1 with
  | [ (fp, true) ] ->
    check tbool "reads C" true (not (Addr.Set.is_empty (Footprint.rs_set fp)));
    check tbool "writes C" true
      (not (Addr.Set.is_empty (Footprint.ws_set fp)))
  | _ -> Alcotest.fail "expected one atomic prediction"

let test_local_accesses_never_race () =
  (* threads hammer their own stack locals: freelists are disjoint *)
  let p =
    Lang.prog
      [
        Lang.Mod
          ( Clight.lang,
            Parse.clight
              {| void f() { int a; int i; i = 0; while (i < 3) { a = i; g(&a); i = i + 1; } }
                 void g(int p) { *p = *p + 1; } |} );
      ]
      [ "f"; "f" ]
  in
  let r = Race.drf (load p) in
  check tbool "stack-local traffic is race-free" true r.Race.drf

(* ------------------------------------------------------------------ *)
(* Predictions read off the explored transitions                       *)
(* ------------------------------------------------------------------ *)

let same_prediction (d1, b1) (d2, b2) = b1 = b2 && Footprint.equal d1 d2

(* [Race.predictions_of_trans] against [Race.predict], thread by thread
   and in order, on every world [engine] visits in the selection view.
   Returns how many of those worlds have an atomic-bit holder. *)
let check_predictions ~name ~engine w0 =
  let holders = ref 0 in
  let visit w trans =
    let live = World.live_tids w in
    if List.exists (World.dbit w) live then incr holders;
    let expected = List.map (fun t -> (t, Race.predict w t)) live in
    let got = Race.predictions_of_trans w trans in
    let same =
      List.length expected = List.length got
      && List.for_all2
           (fun (t1, p1) (t2, p2) ->
             t1 = t2
             && List.length p1 = List.length p2
             && List.for_all2 same_prediction p1 p2)
           expected got
    in
    if not same then
      Alcotest.failf "%s (%s): transition-read predictions differ from \
                      Race.predict at@ %a"
        name (Engine.to_string engine) World.pp w
  in
  ignore
    (Cas_mc.Engine.reachable_trans ~engine Engine.selection_system [ w0 ]
       ~visit);
  !holders

let gen_world (g : Cas_fuzz.Gen.t) =
  let mods =
    match g.Cas_fuzz.Gen.g_lang with
    | Cas_fuzz.Gen.Clight ->
      Lang.Mod (Clight.lang, Parse.clight g.Cas_fuzz.Gen.g_source)
      ::
      (if g.Cas_fuzz.Gen.g_with_lock then
         [ Lang.Mod (Cimp.lang, Cimp.gamma_lock ()) ]
       else [])
    | Cas_fuzz.Gen.Cimp ->
      [ Lang.Mod (Cimp.lang, Parse.cimp g.Cas_fuzz.Gen.g_source) ]
  in
  World.load (Lang.prog mods g.Cas_fuzz.Gen.g_entries) ~args:[]

let test_predictions_corpus () =
  let holders = ref 0 in
  List.iter
    (fun (name, p) ->
      let w0 = load p in
      List.iter
        (fun engine ->
          holders := !holders + check_predictions ~name ~engine w0)
        [ Engine.Dpor; Engine.Naive ])
    [
      ("lock-counter", Corpus.lock_counter_prog ());
      ( "lock-counter-3",
        Lang.prog
          [
            Lang.Mod (Clight.lang, Corpus.counter ());
            Lang.Mod (Cimp.lang, Corpus.gamma_lock ());
          ]
          [ "inc"; "inc"; "inc" ] );
      ( "producer-consumer",
        Lang.prog
          [
            Lang.Mod (Clight.lang, Corpus.producer_consumer ());
            Lang.Mod (Cimp.lang, Corpus.gamma_lock ());
          ]
          [ "producer"; "consumer" ] );
      ("racy", Corpus.racy_prog ());
      ("observer", Corpus.observer_prog ());
    ];
  (* the lock's atomic blocks put worlds with a holder on every lock
     program, so the fallback to [Race.predict] is exercised too *)
  check tbool "worlds with an atomic-bit holder visited" true (!holders > 0)

(* Generated programs of both languages: Clight clients with and
   without γ_lock, CImp objects with their own atomic blocks. *)
let test_predictions_generated () =
  List.iter
    (fun lang ->
      let holders = ref 0 and lock_clients = ref 0 in
      for seed = 1 to 40 do
        let g = Cas_fuzz.Gen.program ~lang (Rng.make ~seed) ~size:4 in
        if g.Cas_fuzz.Gen.g_with_lock then incr lock_clients;
        match gen_world g with
        | Error _ -> ()
        | Ok w0 ->
          holders :=
            !holders
            + check_predictions
                ~name:
                  (Fmt.str "%s seed %d" (Cas_fuzz.Gen.lang_to_string lang) seed)
                ~engine:Engine.Dpor w0
      done;
      let l = Cas_fuzz.Gen.lang_to_string lang in
      check tbool (l ^ ": worlds with an atomic-bit holder visited") true
        (!holders > 0);
      if lang = Cas_fuzz.Gen.Clight then
        check tbool "clight: some clients link γ_lock, some do not" true
          (!lock_clients > 0 && !lock_clients < 40))
    [ Cas_fuzz.Gen.Clight; Cas_fuzz.Gen.Cimp ]

let prop_predictions lang =
  QCheck.Test.make
    ~name:(Fmt.str "qcheck %s programs" (Cas_fuzz.Gen.lang_to_string lang))
    ~count:60
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      let g = Cas_fuzz.Gen.program ~lang (Rng.make ~seed) ~size:5 in
      match gen_world g with
      | Error _ -> QCheck.assume_fail ()
      | Ok w0 ->
        ignore (check_predictions ~name:g.Cas_fuzz.Gen.g_source
                  ~engine:Engine.Dpor w0);
        true)

(* [Race.drf] and witness capture run the same visitor over the same
   graph under every engine, so they report the same race: same verdict
   and the same minimal witness key. *)
let test_capture_same_witness () =
  List.iter
    (fun (name, p) ->
      let w0 = load p in
      List.iter
        (fun engine ->
          let key (r : Race.drf_report) =
            match (r.Race.witness_world, r.Race.witness) with
            | Some w, Some wt -> Some (Race.witness_key w wt)
            | _ -> None
          in
          let r = Race.drf ~engine ~jobs:2 w0 in
          let c = Cas_diag.Capture.race ~engine ~jobs:2 w0 in
          let l = Fmt.str "%s (%s)" name (Engine.to_string engine) in
          check tbool (l ^ ": same verdict") r.Race.drf
            c.Cas_diag.Capture.rc_report.Race.drf;
          check
            Alcotest.(option string)
            (l ^ ": same witness key") (key r)
            (key c.Cas_diag.Capture.rc_report))
        [ Engine.Naive; Engine.Dpor; Engine.Dpor_par ])
    [
      ("racy", Corpus.racy_prog ());
      ("observer", Corpus.observer_prog ());
      ("lock-counter", Corpus.lock_counter_prog ());
    ]

(* ------------------------------------------------------------------ *)
(* DRF ⇔ NPDRF (steps 6 and 8 of Fig. 2)                               *)
(* ------------------------------------------------------------------ *)

let test_drf_iff_npdrf () =
  let programs =
    [
      ("locked", Corpus.lock_counter_prog ());
      ("racy", Corpus.racy_prog ());
      ("observer", Corpus.observer_prog ());
    ]
  in
  List.iter
    (fun (name, p) ->
      let w = load p in
      let d = (Race.drf w).Race.drf in
      let npd = (Race.npdrf w).Race.drf in
      check tbool (Fmt.str "%s: DRF iff NPDRF" name) d npd)
    programs

(* ------------------------------------------------------------------ *)
(* DRF preservation by compilation (step 7)                            *)
(* ------------------------------------------------------------------ *)

let test_drf_preserved_by_compilation () =
  List.iter
    (fun input ->
      let src = Cascompcert.Framework.source_prog input in
      let tgt = Cascompcert.Framework.target_prog input in
      let d_src = (Race.drf (load src)).Race.drf in
      let d_tgt = (Race.drf (load tgt)).Race.drf in
      if d_src then
        check tbool
          (Fmt.str "%s: target stays DRF" input.Cascompcert.Framework.name)
          true d_tgt)
    (List.filter
       (fun i ->
         i.Cascompcert.Framework.name <> "producer-consumer"
         (* excluded here only for test runtime; covered in the bench *))
       (Corpus.framework_inputs ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "race"
    [
      ( "predictor",
        [
          Alcotest.test_case "racy counter" `Quick test_racy_counter_detected;
          Alcotest.test_case "locked counter DRF" `Quick test_locked_counter_drf;
          Alcotest.test_case "write/write" `Quick test_write_write_race;
          Alcotest.test_case "read/read" `Quick test_read_read_no_race;
          Alcotest.test_case "disjoint writes" `Quick test_disjoint_writes_no_race;
          Alcotest.test_case "atomic blocks" `Quick test_atomic_blocks_no_race;
          Alcotest.test_case "atomic vs plain" `Quick test_atomic_vs_plain_races;
          Alcotest.test_case "predict-1 footprint" `Quick
            test_predict_atomic_footprint;
          Alcotest.test_case "locals never race" `Quick
            test_local_accesses_never_race;
        ] );
      ( "transitions",
        [
          Alcotest.test_case "corpus, every visited world" `Quick
            test_predictions_corpus;
          Alcotest.test_case "generated clight and cimp" `Quick
            test_predictions_generated;
          Alcotest.test_case "capture runs the drf visitor" `Quick
            test_capture_same_witness;
        ]
        @ List.map
            (fun lang ->
              (* pinned seed for reproducibility; QCHECK_SEED=n overrides *)
              let seed =
                match Sys.getenv_opt "QCHECK_SEED" with
                | Some s -> (try int_of_string s with _ -> 0x5ca1ab1e)
                | None -> 0x5ca1ab1e
              in
              QCheck_alcotest.to_alcotest
                ~rand:(Random.State.make [| seed |])
                (prop_predictions lang))
            [ Cas_fuzz.Gen.Clight; Cas_fuzz.Gen.Cimp ] );
      ( "equivalences",
        [
          Alcotest.test_case "DRF iff NPDRF" `Slow test_drf_iff_npdrf;
          Alcotest.test_case "compilation preserves DRF" `Slow
            test_drf_preserved_by_compilation;
        ] );
    ]
