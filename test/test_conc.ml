(** Tests for the global semantics layer: the Load rule, preemptive and
    non-preemptive transitions, world bookkeeping, and the exploration
    engine. The preemptive semantics is exercised through the
    thread-selection view every engine explores
    ([Engine.selection_system]); [test/test_mc.ml] checks it against
    Fig. 7's step function. *)

open Cas_base
open Cas_langs
open Cas_conc

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let single_client src entries =
  Lang.prog [ Lang.Mod (Clight.lang, Parse.clight src) ] entries

let sel_trans w = Engine.selection_system.Cas_mc.Mcsys.trans w

let scheduled w =
  List.sort_uniq compare
    (List.map (fun (t : World.t Cas_mc.Mcsys.trans) -> t.Cas_mc.Mcsys.tid)
       (sel_trans w))

(* ------------------------------------------------------------------ *)
(* Load rule                                                           *)
(* ------------------------------------------------------------------ *)

let test_load_ok () =
  match World.load (Corpus.lock_counter_prog ()) ~args:[] with
  | Error e -> Alcotest.failf "load: %a" World.pp_load_error e
  | Ok w ->
    check tint "two threads" 2 (List.length (World.live_tids w));
    check tbool "not done" false (World.all_done w);
    (* freelists disjoint *)
    let fls =
      World.IMap.bindings w.World.threads |> List.map (fun (_, t) -> t.World.flist)
    in
    List.iteri
      (fun i f1 ->
        List.iteri
          (fun j f2 ->
            if i <> j then check tbool "disjoint flists" true (Flist.disjoint f1 f2))
          fls)
      fls

let test_load_unresolved_entry () =
  match World.load (single_client {| void f() { } |} [ "nonexistent" ]) ~args:[] with
  | Error (World.Unresolved_entry "nonexistent") -> ()
  | _ -> Alcotest.fail "expected unresolved entry"

let test_load_incompatible_globals () =
  let m1 = Parse.clight {| int x = 1; void f() { } |} in
  let m2 = Parse.clight {| int x = 2; void g() { } |} in
  let p = Lang.prog [ Lang.Mod (Clight.lang, m1); Lang.Mod (Clight.lang, m2) ] [ "f" ] in
  match World.load p ~args:[] with
  | Error (World.Incompatible_globals "x") -> ()
  | _ -> Alcotest.fail "expected incompatible globals"

let test_load_compatible_globals_shared () =
  let m1 = Parse.clight {| int x = 1; void f() { x = 2; } |} in
  let m2 = Parse.clight {| int x = 1; void g() { print(x); } |} in
  let p = Lang.prog [ Lang.Mod (Clight.lang, m1); Lang.Mod (Clight.lang, m2) ] [ "f"; "g" ] in
  match World.load p ~args:[] with
  | Error e -> Alcotest.failf "load: %a" World.pp_load_error e
  | Ok _ -> ()

(* ------------------------------------------------------------------ *)
(* Preemptive semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_switch_any_time () =
  let p = single_client {| void f() { int a; a = 1; a = a + 1; } |} [ "f"; "f" ] in
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    (* a switch to the other thread is a step of that thread *)
    check tbool "switch available" true (scheduled w = [ 1; 2 ])

let test_atomic_blocks_preemption () =
  (* inside a CImp atomic block no switch is offered *)
  let gamma = Corpus.gamma_lock () in
  let p =
    Lang.prog [ Lang.Mod (Cimp.lang, gamma) ] [ "unlock"; "unlock" ]
  in
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    (* step thread 1 to EntAtom *)
    let rec to_atomic w n =
      if n > 20 then Alcotest.fail "never entered atomic block"
      else if World.dbit w 1 then w
      else
        match
          List.find_map
            (fun (t : World.t Cas_mc.Mcsys.trans) ->
              match t.Cas_mc.Mcsys.target with
              | Cas_mc.Mcsys.Next w' when t.Cas_mc.Mcsys.tid = 1 -> Some w'
              | _ -> None)
            (sel_trans w)
        with
        | Some w' -> to_atomic w' (n + 1)
        | None -> Alcotest.fail "stuck"
    in
    let w_atomic = to_atomic w 0 in
    check tbool "no switch inside atomic block" true
      (scheduled w_atomic = [ 1 ])

let test_threads_terminate () =
  let p = single_client {| void f() { print(1); } |} [ "f" ] in
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr, _ = Engine.traces w in
    check tbool "done trace exists" true
      (Explore.TraceSet.mem ([ Event.Print 1 ], Explore.SDone) tr.Explore.traces)

let test_abort_reported () =
  let p = single_client {| void f() { int x; x = *0; } |} [ "f" ] in
  (* *0 → deref of int constant → abort *)
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr, _ = Engine.traces w in
    check tbool "abort trace" true
      (Explore.TraceSet.mem ([], Explore.SAbort) tr.Explore.traces)

(* ------------------------------------------------------------------ *)
(* Non-preemptive semantics                                            *)
(* ------------------------------------------------------------------ *)

let test_np_no_midstream_switch () =
  (* two threads of pure computation: NP gives exactly the two serial
     orders, so each world has at most one local successor *)
  let p =
    single_client {| int x = 0; void f() { x = x + 1; print(x); } |} [ "f"; "f" ]
  in
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr = Engine.np_traces w in
    (* racy program: but under NP each thread runs to its print *)
    check tbool "np traces exist" true
      (Explore.TraceSet.cardinal tr.Explore.traces > 0)

let test_np_switch_at_print () =
  let p =
    single_client {| void f() { print(1); print(2); } |} [ "f"; "f" ]
  in
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr = Engine.np_traces w in
    (* events interleave at event boundaries: 1 1 2 2 must be reachable *)
    check tbool "interleaving across events" true
      (Explore.TraceSet.mem
         ( [ Event.Print 1; Event.Print 1; Event.Print 2; Event.Print 2 ],
           Explore.SDone )
         tr.Explore.traces)

let test_np_fewer_worlds_than_preemptive () =
  match World.load (Corpus.lock_counter_prog ()) ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let pre = (Engine.explore w ~visit:ignore).Cas_mc.Stats.worlds in
    let np = (Engine.np_explore w ~visit:ignore).Cas_mc.Stats.worlds in
    check tbool
      (Fmt.str "NP explores fewer worlds (%d < %d)" np pre)
      true (np < pre)

(* ------------------------------------------------------------------ *)
(* World fingerprints                                                  *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_distinguishes () =
  match World.load (Corpus.lock_counter_prog ()) ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w -> (
    let fp0 = World.fingerprint w in
    check tbool "same world same fp" true (fp0 = World.fingerprint w);
    match sel_trans w with
    | { Cas_mc.Mcsys.target = Cas_mc.Mcsys.Next w'; _ } :: _ ->
      check tbool "stepped world differs" false (fp0 = World.fingerprint w')
    | _ -> Alcotest.fail "no steps")

(* ------------------------------------------------------------------ *)
(* Cross-module interaction (example 2.1)                              *)
(* ------------------------------------------------------------------ *)

let test_cross_module_call () =
  let p =
    Lang.prog
      [
        Lang.Mod (Clight.lang, Corpus.cross_module_f ());
        Lang.Mod (Clight.lang, Corpus.cross_module_g ());
      ]
      [ "f" ]
  in
  match World.load p ~args:[] with
  | Error e -> Alcotest.failf "load: %a" World.pp_load_error e
  | Ok w ->
    let tr, _ = Engine.traces w in
    (* g writes 3 through the pointer; f prints a + b = 0 + 3 *)
    check tbool "pointer passed across modules" true
      (Explore.TraceSet.mem ([ Event.Print 3 ], Explore.SDone) tr.Explore.traces)

let test_cross_module_unresolved_call_aborts () =
  let p = Lang.prog [ Lang.Mod (Clight.lang, Corpus.cross_module_f ()) ] [ "f" ] in
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr, _ = Engine.traces w in
    check tbool "missing callee aborts" true
      (Explore.TraceSet.mem ([], Explore.SAbort) tr.Explore.traces)

(* ------------------------------------------------------------------ *)
(* Product search                                                      *)
(* ------------------------------------------------------------------ *)

let test_search_finds_event_pattern () =
  (* is a trace with two print(1) before any print(2) reachable? *)
  let p = single_client {| void f() { print(1); print(2); } |} [ "f"; "f" ] in
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let sys = Engine.selection_system in
    let found =
      Explore.search sys [ w ] ~init:(0, false)
        ~step_state:(fun (ones, seen2) e ->
          match e with
          | Event.Print 1 when not seen2 -> (ones + 1, seen2)
          | Event.Print 2 -> (ones, true)
          | _ -> (ones, seen2))
        ~accept:(fun (ones, seen2) -> ones >= 2 && not seen2)
        ~state_fp:(fun (a, b) -> Fmt.str "%d%b" a b)
        ()
    in
    check tbool "1,1 before any 2 reachable" true (found = Explore.Reachable);
    let impossible =
      Explore.search sys [ w ] ~init:0
        ~step_state:(fun n e ->
          match e with Event.Print 1 -> n + 1 | _ -> n)
        ~accept:(fun n -> n >= 3)
        ~state_fp:string_of_int ()
    in
    check tbool "three print(1)s impossible" true
      (impossible = Explore.Unreachable);
    (* the cap cuts the search short: it says so, not "unreachable" *)
    let two_twos ?max_worlds () =
      Explore.search sys [ w ] ~init:0
        ~step_state:(fun n e -> match e with Event.Print 2 -> n + 1 | _ -> n)
        ~accept:(fun n -> n >= 2)
        ~state_fp:string_of_int ?max_worlds ()
    in
    check tbool "two print(2)s reachable" true
      (two_twos () = Explore.Reachable);
    check tbool "two print(2)s unknown past the cap" true
      (two_twos ~max_worlds:3 () = Explore.Truncated)

let test_search_agrees_with_traces () =
  (* on a small graph, search and trace enumeration agree *)
  let p = single_client {| void f() { print(7); } |} [ "f" ] in
  match World.load p ~args:[] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let found =
      Explore.search Engine.selection_system [ w ] ~init:false
        ~step_state:(fun _ e -> e = Event.Print 7)
        ~accept:(fun b -> b)
        ~state_fp:string_of_bool ()
    in
    let tr, _ = Engine.traces w in
    check tbool "agreement" (found = Explore.Reachable)
      (Explore.TraceSet.mem ([ Event.Print 7 ], Explore.SDone) tr.Explore.traces)

let () =
  Alcotest.run "conc"
    [
      ( "load",
        [
          Alcotest.test_case "ok" `Quick test_load_ok;
          Alcotest.test_case "unresolved entry" `Quick test_load_unresolved_entry;
          Alcotest.test_case "incompatible globals" `Quick
            test_load_incompatible_globals;
          Alcotest.test_case "compatible shared globals" `Quick
            test_load_compatible_globals_shared;
        ] );
      ( "preemptive",
        [
          Alcotest.test_case "switch anytime" `Quick test_switch_any_time;
          Alcotest.test_case "atomic blocks preemption" `Quick
            test_atomic_blocks_preemption;
          Alcotest.test_case "termination" `Quick test_threads_terminate;
          Alcotest.test_case "abort" `Quick test_abort_reported;
        ] );
      ( "non-preemptive",
        [
          Alcotest.test_case "local progress" `Quick test_np_no_midstream_switch;
          Alcotest.test_case "switch at events" `Quick test_np_switch_at_print;
          Alcotest.test_case "smaller state space" `Quick
            test_np_fewer_worlds_than_preemptive;
        ] );
      ( "worlds",
        [ Alcotest.test_case "fingerprints" `Quick test_fingerprint_distinguishes ]
      );
      ( "search",
        [
          Alcotest.test_case "event pattern" `Quick
            test_search_finds_event_pattern;
          Alcotest.test_case "agrees with traces" `Quick
            test_search_agrees_with_traces;
        ] );
      ( "interaction",
        [
          Alcotest.test_case "cross-module pointer (ex. 2.1)" `Quick
            test_cross_module_call;
          Alcotest.test_case "unresolved call aborts" `Quick
            test_cross_module_unresolved_call_aborts;
        ] );
    ]
