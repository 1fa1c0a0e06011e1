(* Quick manual smoke test of the semantics stack (not an alcotest suite). *)
open Cas_base
open Cas_langs
open Cas_conc

let client : Clight.program =
  {
    globals = [ Genv.gvar ~init:[ Genv.Iint 0 ] "x" 1 ];
    funcs =
      [
        {
          fname = "inc";
          fparams = [];
          fvars = [];
          fbody =
            Clight.(
              Sseq
                ( Scall (None, "lock", []),
                  Sseq
                    ( Sset ("tmp", Eglob "x"),
                      Sseq
                        ( Sassign (Lglob "x", Ebinop (Ops.Oadd, Eglob "x", Econst 1)),
                          Sseq
                            ( Scall (None, "unlock", []),
                              Sseq
                                ( Scall (None, "print", [ Etemp "tmp" ]),
                                  Sreturn None ) ) ) ) ));
        };
      ];
  }

let prog : Lang.prog =
  Lang.prog
    [ Lang.Mod (Clight.lang, client); Lang.Mod (Cimp.lang, Cimp.gamma_lock ()) ]
    [ "inc"; "inc" ]

let () =
  match World.load prog ~args:[] with
  | Error e -> Fmt.epr "load error: %a@." World.pp_load_error e
  | Ok w0 ->
    let t0 = Unix.gettimeofday () in
    let pre, _ = Engine.traces ~max_steps:3000 w0 in
    Fmt.pr "preemptive traces (%.2fs): %a@."
      (Unix.gettimeofday () -. t0)
      Explore.TraceSet.pp pre.traces;
    let np = Engine.np_traces w0 in
    Fmt.pr "non-preemptive traces: %a@." Explore.TraceSet.pp np.traces;
    let eq = Refine.equiv pre np in
    Fmt.pr "equiv: %a@." Refine.pp_report eq;
    let drf = Race.drf w0 in
    Fmt.pr "drf: %a@." Race.pp_drf_report drf

(* Compile the client through the full pipeline and re-run. *)
let () =
  let open Cas_compiler in
  let arts = Driver.compile_artifacts client in
  Fmt.pr "@.== compiled inc ==@.%a@."
    Fmt.(list ~sep:cut Asm.pp_func)
    arts.Driver.asm.Asm.funcs;
  let tprog : Lang.prog =
    Lang.prog
      [ Lang.Mod (Asm.lang, arts.Driver.asm);
        Lang.Mod (Cimp.lang, Cimp.gamma_lock ()) ]
      [ "inc"; "inc" ]
  in
  match World.load tprog ~args:[] with
  | Error e -> Fmt.epr "target load error: %a@." World.pp_load_error e
  | Ok w0 ->
    let np = Engine.np_traces w0 in
    Fmt.pr "target NP traces: %a@." Explore.TraceSet.pp np.traces;
    let drf = Race.drf ~max_worlds:100_000 w0 in
    Fmt.pr "target drf: %a@." Race.pp_drf_report drf

(* Framework: Fig. 2 pipeline. *)
let () =
  let open Cascompcert in
  let input =
    {
      Framework.name = "lock-counter";
      clients = [ client ];
      objects = [ Cimp.gamma_lock () ];
      entries = [ "inc"; "inc" ];
    }
  in
  let t0 = Unix.gettimeofday () in
  let run = Framework.check_fig2 input in
  Fmt.pr "@.%a@.(fig2 took %.2fs)@." Framework.pp_run run
    (Unix.gettimeofday () -. t0);
  let sims = Framework.check_passes client in
  Fmt.pr "@.per-pass simulations:@.%a@."
    Fmt.(list ~sep:cut Framework.pp_pass_sim)
    sims

(* TSO: Fig. 3 / Lemma 16. *)
let () =
  let open Cas_tso in
  let open Cas_compiler in
  let asm_client = Driver.compile client in
  let t0 = Unix.gettimeofday () in
  let g =
    Objsim.check_drf_guarantee ~max_steps:2000 ~clients:[ asm_client ]
      ~pi:Locks.pi_lock ~gamma:(Locks.gamma_lock ()) ~entries:[ "inc"; "inc" ]
      ()
  in
  Fmt.pr "@.Lemma 16 (TSO+pi ⊑ SC+gamma): %a (%.2fs)@." Objsim.pp_guarantee g
    (Unix.gettimeofday () -. t0);
  let sims =
    Objsim.check_object_sim ~pi:Locks.pi_lock ~gamma:(Locks.gamma_lock ())
      ~entries:[ ("lock", [ 0; 1 ]); ("unlock", [ 0 ]) ]
      ()
  in
  Fmt.pr "object sim: %a@." Fmt.(list ~sep:cut Objsim.pp_obj_sim) sims

(* Parser round-trip: Fig. 10 from concrete syntax. *)
let () =
  let client_src = {|
    int x = 0;
    void inc() {
      int tmp;
      lock();
      tmp = x;
      x = x + 1;
      unlock();
      print(tmp);
    }
  |} in
  let lock_src = {|
    object int L = 1;
    void lock() {
      r := 0;
      while (r == 0) { atomic { r := [L]; [L] := 0; } }
    }
    void unlock() {
      atomic { r := [L]; assert(r == 0); [L] := 1; }
    }
  |} in
  let client = Parse.clight client_src in
  let gamma = Parse.cimp lock_src in
  let prog =
    Lang.prog
      [ Lang.Mod (Clight.lang, client); Lang.Mod (Cimp.lang, gamma) ]
      [ "inc"; "inc" ]
  in
  (match World.load prog ~args:[] with
  | Error e -> Fmt.epr "parsed load error: %a@." World.pp_load_error e
  | Ok w0 ->
    let np = Engine.np_traces w0 in
    Fmt.pr "@.parsed-source NP traces: %a@." Explore.TraceSet.pp np.traces);
  let open Cascompcert in
  let sims = Framework.check_passes client in
  let fails = List.filter (fun r -> not (Framework.sim_ok r.Framework.outcome)) sims in
  Fmt.pr "parsed client pass sims: %d checks, %d failures@." (List.length sims)
    (List.length fails);
  List.iter (fun r -> Fmt.pr "  %a@." Framework.pp_pass_sim r) fails
