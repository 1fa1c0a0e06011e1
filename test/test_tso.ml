(** Tests for the x86-TSO machine and the extended framework (Fig. 3):
    store-buffer litmus tests, the TTAS lock of Fig. 10, the object
    simulation π_o ≼ᵒ γ_o, and the strengthened DRF-guarantee
    (Lem. 16). *)

open Cas_base
open Cas_langs
open Cas_tso

let check = Alcotest.check
let tbool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* The SB litmus test: x=1; r1=y ∥ y=1; r2=x                           *)
(* ------------------------------------------------------------------ *)

(** Hand-written x86: thread k stores 1 to its variable, then loads the
    other and prints it. Under SC at least one thread must print 1;
    under TSO both may print 0 — the canonical store-buffering
    relaxation. *)
let sb_module ~fence : Asm.program =
  let mk name mine other =
    {
      Asm.fname = name;
      arity = 0;
      framesize = 0;
      is_object = false;
      code =
        [
          Asm.Plea_global (Mreg.CX, mine);
          Asm.Pmov_ri (Mreg.DX, 1);
          Asm.Pstore (Mreg.CX, 0, Mreg.DX);
        ]
        @ (if fence then [ Asm.Pmfence ] else [])
        @ [
            Asm.Plea_global (Mreg.CX, other);
            Asm.Pload (Mreg.AX, Mreg.CX, 0);
            Asm.Pcall ("print", 1, false);
            Asm.Pret false;
          ];
    }
  in
  {
    Asm.funcs = [ mk "t1" "x" "y"; mk "t2" "y" "x" ];
    globals = [ Genv.gvar ~init:[ Genv.Iint 0 ] "x" 1; Genv.gvar ~init:[ Genv.Iint 0 ] "y" 1 ];
  }

let trace_mem events ts =
  Cas_conc.Explore.TraceSet.mem (events, Cas_conc.Explore.SDone) ts

let test_sb_tso_relaxation () =
  match Tso.load [ sb_module ~fence:false ] [ "t1"; "t2" ] with
  | Error e -> Alcotest.failf "load: %a" Cas_conc.World.pp_load_error e
  | Ok w ->
    let tr = Tso.traces w in
    check tbool "both-zero observable under TSO" true
      (trace_mem [ Event.Print 0; Event.Print 0 ] tr.Cas_conc.Explore.traces)

let test_sb_sc_forbids () =
  let p =
    Lang.prog [ Lang.Mod (Asm.lang, sb_module ~fence:false) ] [ "t1"; "t2" ]
  in
  match Cas_conc.World.load p ~args:[] with
  | Error e -> Alcotest.failf "load: %a" Cas_conc.World.pp_load_error e
  | Ok w ->
    let tr, _ = Cas_conc.Engine.traces w in
    check tbool "both-zero forbidden under SC" false
      (trace_mem [ Event.Print 0; Event.Print 0 ] tr.Cas_conc.Explore.traces)

let test_sb_fenced_restores_sc () =
  match Tso.load [ sb_module ~fence:true ] [ "t1"; "t2" ] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr = Tso.traces w in
    check tbool "mfence kills the relaxation" false
      (trace_mem [ Event.Print 0; Event.Print 0 ] tr.Cas_conc.Explore.traces)

(* ------------------------------------------------------------------ *)
(* Buffer mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let test_buffer_fifo () =
  (* store 1 then 2 to the same cell; drains must apply in order *)
  let m : Asm.program =
    {
      Asm.funcs =
        [
          {
            Asm.fname = "w";
            arity = 0;
            framesize = 0;
            is_object = false;
            code =
              [
                Asm.Plea_global (Mreg.CX, "x");
                Asm.Pmov_ri (Mreg.DX, 1);
                Asm.Pstore (Mreg.CX, 0, Mreg.DX);
                Asm.Pmov_ri (Mreg.DX, 2);
                Asm.Pstore (Mreg.CX, 0, Mreg.DX);
                Asm.Pload (Mreg.AX, Mreg.CX, 0);
                Asm.Pcall ("print", 1, false);
                Asm.Pret false;
              ];
          };
        ];
      globals = [ Genv.gvar ~init:[ Genv.Iint 0 ] "x" 1 ];
    }
  in
  match Tso.load [ m ] [ "w" ] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr = Tso.traces w in
    (* own stores are visible through the buffer: always prints 2 *)
    check tbool "reads own buffer (newest)" true
      (trace_mem [ Event.Print 2 ] tr.Cas_conc.Explore.traces);
    check tbool "never stale" false
      (trace_mem [ Event.Print 1 ] tr.Cas_conc.Explore.traces)

let test_locked_instr_needs_flush () =
  (* a lock cmpxchg after a buffered store: the machine must drain
     before executing it — no interleaving shows the store unflushed
     after the cmpxchg retires *)
  let m : Asm.program =
    {
      Asm.funcs =
        [
          {
            Asm.fname = "w";
            arity = 0;
            framesize = 0;
            is_object = false;
            code =
              [
                Asm.Plea_global (Mreg.CX, "x");
                Asm.Pmov_ri (Mreg.DX, 5);
                Asm.Pstore (Mreg.CX, 0, Mreg.DX);
                (* cmpxchg on y *)
                Asm.Plea_global (Mreg.BX, "y");
                Asm.Pmov_ri (Mreg.AX, 0);
                Asm.Pmov_ri (Mreg.DX, 1);
                Asm.Plock_cmpxchg (Mreg.BX, Mreg.DX);
                Asm.Pload (Mreg.AX, Mreg.CX, 0);
                Asm.Pcall ("print", 1, false);
                Asm.Pret false;
              ];
          };
        ];
      globals =
        [ Genv.gvar ~init:[ Genv.Iint 0 ] "x" 1; Genv.gvar ~init:[ Genv.Iint 0 ] "y" 1 ];
    }
  in
  match Tso.load [ m ] [ "w" ] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr = Tso.traces w in
    check tbool "always prints flushed value" true
      (trace_mem [ Event.Print 5 ] tr.Cas_conc.Explore.traces);
    check Alcotest.int "single deterministic outcome" 1
      (Cas_conc.Explore.TraceSet.cardinal tr.Cas_conc.Explore.traces)

(* ------------------------------------------------------------------ *)
(* Locks (Fig. 10)                                                     *)
(* ------------------------------------------------------------------ *)

let compiled_counter () = Cas_compiler.Driver.compile (Corpus.counter ())

let test_lemma16_ttas_lock () =
  let g =
    Objsim.check_drf_guarantee ~max_steps:2200 ~clients:[ compiled_counter () ]
      ~pi:Locks.pi_lock ~gamma:(Corpus.gamma_lock ()) ~entries:[ "inc"; "inc" ]
      ()
  in
  check tbool "TSO+pi_lock refines SC+gamma_lock" true g.Objsim.holds

let test_lemma16_fenced_lock () =
  let g =
    Objsim.check_drf_guarantee ~max_steps:2200 ~clients:[ compiled_counter () ]
      ~pi:Locks.pi_lock_fenced ~gamma:(Corpus.gamma_lock ())
      ~entries:[ "inc"; "inc" ] ()
  in
  check tbool "fenced lock refines too" true g.Objsim.holds

let test_mutual_exclusion_under_tso () =
  (* both increments land: the done traces are exactly {01, 10} *)
  match Tso.load [ compiled_counter (); Locks.pi_lock ] [ "inc"; "inc" ] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr = Tso.traces ~max_steps:2200 w in
    let dones =
      Cas_conc.Explore.TraceSet.filter
        (fun (_, st) -> st = Cas_conc.Explore.SDone)
        tr.Cas_conc.Explore.traces
    in
    check tbool "0,1 order" true
      (trace_mem [ Event.Print 0; Event.Print 1 ] dones);
    check tbool "1,0 order" true
      (trace_mem [ Event.Print 1; Event.Print 0 ] dones);
    check Alcotest.int "no torn counts" 2
      (Cas_conc.Explore.TraceSet.cardinal dones)

let test_object_sim_lock () =
  let reports =
    Objsim.check_object_sim ~pi:Locks.pi_lock ~gamma:(Corpus.gamma_lock ())
      ~entries:[ ("lock", [ 0; 1 ]); ("unlock", [ 0 ]) ]
      ()
  in
  List.iter
    (fun r ->
      check tbool
        (Fmt.str "pi_lock %s from L=%d" r.Objsim.entry r.Objsim.init_state)
        true r.Objsim.ok)
    reports

let test_object_sim_detects_broken_lock () =
  (* a 'lock' that skips the cmpxchg entirely cannot simulate the spec *)
  let broken : Asm.program =
    {
      Locks.pi_lock with
      Asm.funcs =
        [
          { Locks.lock_func with Asm.code = [ Asm.Pret false ] };
          Locks.unlock_func;
        ];
    }
  in
  let reports =
    Objsim.check_object_sim ~pi:broken ~gamma:(Corpus.gamma_lock ())
      ~entries:[ ("lock", [ 0 ]) ] ()
  in
  (* from L=0 (held), real lock blocks; broken one returns — mismatch *)
  check tbool "broken lock rejected" true
    (List.exists (fun r -> not r.Objsim.ok) reports)

let test_client_cannot_touch_lock_word () =
  (* client code accessing L faults on the permission system *)
  let evil =
    Cas_compiler.Driver.compile
      (Parse.clight {| void evil() { int t; t = L; print(t); } |})
  in
  match Tso.load [ evil; Locks.pi_lock ] [ "evil" ] with
  | Error _ -> Alcotest.fail "load"
  | Ok w ->
    let tr = Tso.traces w in
    check tbool "client access to object data aborts" true
      (Cas_conc.Explore.TraceSet.mem ([], Cas_conc.Explore.SAbort)
         tr.Cas_conc.Explore.traces)

(* ------------------------------------------------------------------ *)
(* A second object: the fetch-and-add counter (§2.4 generality)        *)
(* ------------------------------------------------------------------ *)

let test_counter_object_tso () =
  (* two drivers fetch_add concurrently: return values are {0,1} in
     either order, never duplicated — even with the racy plain read *)
  let drv = Cas_compiler.Driver.compile (Objects.driver_client ()) in
  match Tso.load [ drv; Objects.pi_counter ] [ "drv"; "drv" ] with
  | Error e -> Alcotest.failf "load: %a" Cas_conc.World.pp_load_error e
  | Ok w ->
    let tr = Tso.traces ~max_steps:2500 w in
    let dones =
      Cas_conc.Explore.TraceSet.filter
        (fun (_, st) -> st = Cas_conc.Explore.SDone)
        tr.Cas_conc.Explore.traces
    in
    check tbool "0,1" true (trace_mem [ Event.Print 0; Event.Print 1 ] dones);
    check tbool "1,0" true (trace_mem [ Event.Print 1; Event.Print 0 ] dones);
    check Alcotest.int "exactly the two linearizations" 2
      (Cas_conc.Explore.TraceSet.cardinal dones)

let test_counter_object_lemma16 () =
  let drv = Cas_compiler.Driver.compile (Objects.driver_client ()) in
  let g =
    Objsim.check_drf_guarantee ~max_steps:2500 ~clients:[ drv ]
      ~pi:Objects.pi_counter ~gamma:Objects.gamma_counter
      ~entries:[ "drv"; "drv" ] ()
  in
  check tbool "TSO+pi_counter refines SC+gamma_counter" true g.Objsim.holds

let test_counter_spec_sc () =
  (* the CImp spec itself: atomic fetch_add never loses updates *)
  let p =
    Lang.prog
      [
        Lang.Mod (Clight.lang, Objects.driver_client ());
        Lang.Mod (Cimp.lang, Objects.gamma_counter);
      ]
      [ "drv"; "drv" ]
  in
  match Cas_conc.World.load p ~args:[] with
  | Error e -> Alcotest.failf "load: %a" Cas_conc.World.pp_load_error e
  | Ok w ->
    let tr, _ = Cas_conc.Engine.traces w in
    check tbool "no duplicated tickets" false
      (trace_mem [ Event.Print 0; Event.Print 0 ] tr.Cas_conc.Explore.traces)

let () =
  Alcotest.run "tso"
    [
      ( "litmus",
        [
          Alcotest.test_case "SB relaxation" `Quick test_sb_tso_relaxation;
          Alcotest.test_case "SB forbidden under SC" `Quick test_sb_sc_forbids;
          Alcotest.test_case "mfence restores SC" `Quick
            test_sb_fenced_restores_sc;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "fifo + own reads" `Quick test_buffer_fifo;
          Alcotest.test_case "locked instr flushes" `Quick
            test_locked_instr_needs_flush;
        ] );
      ( "locks",
        [
          Alcotest.test_case "Lemma 16 (TTAS)" `Slow test_lemma16_ttas_lock;
          Alcotest.test_case "Lemma 16 (fenced)" `Slow test_lemma16_fenced_lock;
          Alcotest.test_case "mutual exclusion" `Slow
            test_mutual_exclusion_under_tso;
          Alcotest.test_case "object simulation" `Quick test_object_sim_lock;
          Alcotest.test_case "broken lock rejected" `Quick
            test_object_sim_detects_broken_lock;
          Alcotest.test_case "confinement" `Quick
            test_client_cannot_touch_lock_word;
        ] );
      ( "counter object",
        [
          Alcotest.test_case "linearizable under TSO" `Slow
            test_counter_object_tso;
          Alcotest.test_case "Lemma 16" `Slow test_counter_object_lemma16;
          Alcotest.test_case "spec under SC" `Quick test_counter_spec_sc;
        ] );
    ]
