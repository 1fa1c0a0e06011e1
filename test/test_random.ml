(** Differential testing of the whole compiler: generate random mini-C
    functions ([Randprog]: straight-line arithmetic, conditionals, bounded
    loops, global and stack-local traffic, address-taken locals), compile them
    through all 16 passes, and require that the x86 target produces
    exactly the source's observable behaviour (events, return value
    modulo Vundef-refinement, abort-for-abort).

    This is the qcheck-shaped face of Lem. 13 (Correct(CompCert)): where
    the paper quantifies over all programs by proof, we sample the
    program space. A shrinking counterexample would print the offending
    source. *)

open Cas_base
open Cas_langs

(* ------------------------------------------------------------------ *)
(* Behavioural comparison                                              *)
(* ------------------------------------------------------------------ *)

type obs = {
  events : Event.t list;
  ret : Value.t option;
  aborted : bool;
}

let run_one (type code core) (lang : (code, core) Lang.t) (code : code) : obs =
  match Genv.link [ lang.Lang.globals_of code ] with
  | Error _ -> { events = []; ret = None; aborted = true }
  | Ok genv -> (
    let mem = Genv.init_memory genv in
    let fl = Flist.make ~offset:(Genv.block_count genv) ~stride:1 in
    match lang.Lang.init_core ~genv code ~entry:"main" ~args:[] with
    | None -> { events = []; ret = None; aborted = true }
    | Some core ->
      let events = ref [] in
      let rec go core mem steps =
        if steps > 200_000 then { events = List.rev !events; ret = None; aborted = true }
        else
          match lang.Lang.step fl core mem with
          | [] | Lang.Stuck_abort :: _ ->
            { events = List.rev !events; ret = None; aborted = true }
          | Lang.Next (Msg.Ret v, _, _, _) :: _ ->
            { events = List.rev !events; ret = Some v; aborted = false }
          | Lang.Next (Msg.Call ("print", [ Value.Vint n ]), _, core', mem') :: _
            -> (
            events := Event.Print n :: !events;
            match lang.Lang.after_external core' None with
            | Some core'' -> go core'' mem' (steps + 1)
            | None -> { events = List.rev !events; ret = None; aborted = true })
          | Lang.Next (_, _, core', mem') :: _ -> go core' mem' (steps + 1)
      in
      go core mem 0)

let values_refine src tgt =
  match (src, tgt) with
  | Some Value.Vundef, Some _ -> true
  | Some a, Some b -> Value.equal a b
  | None, None -> true
  | _ -> false

let obs_refines (src : obs) (tgt : obs) =
  if src.aborted then true (* UB in the source licenses anything *)
  else
    (not tgt.aborted)
    && List.length src.events = List.length tgt.events
    && List.for_all2 Event.equal src.events tgt.events
    && values_refine src.ret tgt.ret

(* ------------------------------------------------------------------ *)
(* The differential properties                                         *)
(* ------------------------------------------------------------------ *)

let prop_compiler_correct =
  QCheck.Test.make ~name:"compiled x86 refines random source" ~count:300
    Randprog.arb_program (fun p ->
      let src = run_one Clight.lang p in
      let tgt = run_one Asm.lang (Cas_compiler.Driver.compile p) in
      obs_refines src tgt)

let prop_compiler_correct_noopt =
  QCheck.Test.make ~name:"unoptimized pipeline refines random source"
    ~count:150 Randprog.arb_program (fun p ->
      let src = run_one Clight.lang p in
      let tgt =
        run_one Asm.lang
          (Cas_compiler.Driver.compile
             ~options:{ Cas_compiler.Driver.optimize = false }
             p)
      in
      obs_refines src tgt)

let prop_every_stage_refines =
  QCheck.Test.make ~name:"every IR stage refines random source" ~count:60
    Randprog.arb_program (fun p ->
      let src = run_one Clight.lang p in
      let a = Cas_compiler.Driver.compile_artifacts p in
      let open Cas_compiler.Driver in
      List.for_all
        (fun o -> obs_refines src o)
        [
          run_one Clight.lang a.clight_simpl;
          run_one Csharpminor.lang a.csharpminor;
          run_one Cminor.lang a.cminor;
          run_one Cminor.sel_lang a.cminorsel;
          run_one Rtl.lang a.rtl;
          run_one Rtl.lang a.rtl_deadcode;
          run_one Ltl.lang a.ltl_tunneled;
          run_one Linearl.lang a.linear_clean;
          run_one Machl.lang a.mach;
          run_one Asm.lang a.asm;
        ])

(* The per-IR core hashes must refine fingerprint equality: with a
   collision audit (--paranoid-fp) the checker cross-checks the 16-byte
   key against the canonical fingerprint string on every core it visits,
   and it co-executes every pipeline stage, so one check_passes run
   sweeps the hand-written Clight and x86 streamers, and the printed
   hashes of the mid-pipeline IRs, over live states. *)
let prop_hash_refines_fingerprint_on_random =
  QCheck.Test.make
    ~name:"streamed hash refines fingerprint on every IR (paranoid sweep)"
    ~count:40 Randprog.arb_program (fun p ->
      let audit = Lang.audit () in
      ignore (Cascompcert.Framework.check_passes ~cache:false ~audit p);
      Lang.audit_collisions audit = [])

(* Fundef digests are a pure function of the code: recompiling the same
   random program yields bit-identical per-stage digests for every
   defined function — no hidden state leaks into a streamer. *)
let prop_fundef_digest_deterministic =
  QCheck.Test.make
    ~name:"per-stage fundef digests are deterministic on random programs"
    ~count:40 Randprog.arb_program (fun p ->
      let digests () =
        List.map
          (fun (stage, m) -> (stage, Lang.digest_fundef m "main"))
          (Cas_compiler.Driver.compile_unit ~cache:false p)
            .Cas_compiler.Driver.c_trace
      in
      digests () = digests ())

let prop_module_sim_on_random =
  QCheck.Test.make ~name:"Def.2/3 simulation holds on random programs"
    ~count:100 Randprog.arb_program (fun p ->
      let asm = Cas_compiler.Driver.compile p in
      match
        Cascompcert.Simulation.check ~src:(Clight.lang, p) ~tgt:(Asm.lang, asm)
          ~entry:"main" ~args:[] ()
      with
      | Cascompcert.Simulation.Sim_fail _ -> false
      | _ -> true)

(* Pinned generator seed for reproducible runs; override with
   QCHECK_SEED=n to explore a different slice of the input space. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string s with _ -> 0x5ca1ab1e)
  | None -> 0x5ca1ab1e

let () =
  let rand = Random.State.make [| qcheck_seed |] in
  Alcotest.run "random-differential"
    [
      ( "compiler",
        List.map
          (QCheck_alcotest.to_alcotest ~rand)
          [
            prop_compiler_correct;
            prop_compiler_correct_noopt;
            prop_every_stage_refines;
            prop_hash_refines_fingerprint_on_random;
            prop_fundef_digest_deterministic;
            prop_module_sim_on_random;
          ] );
    ]
