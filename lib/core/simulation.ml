(** The footprint-preserving module-local simulation (Def. 2, Def. 3,
    Fig. 8), as an executable checker.

    The Coq development *proves* (sl, ge, γ) ≼_φ (tl, ge', π) for every
    compiler pass; we *check* it on concrete executions: source and target
    modules are co-executed between switch points (non-τ messages),
    accumulating footprints ∆ and δ, and at every switch point the checker
    verifies exactly the obligations of Def. 3:

    - the two sides emit the same message ι (values related by the
      dynamically-inferred address injection φ/β);
    - footprints stay in scope: ∆ ⊆ F ∪ S and δ ⊆ F ∪ µ.S;
    - FPmatch(µ, ∆, δ): shared-memory reads of the target come from
      source reads-or-writes, shared writes from source writes (Fig. 8);
    - the shared memories are related (the Inv of Fig. 8);
    - footprints are cleared after the switch point, and the environment
      may act (the Rely): the checker injects return values and shared
      writes on both sides.

    Because compiled code's stack layout differs from the source's, the
    address mapping φ is inferred on the fly as a partial bijection β,
    seeded with the identity on globals (the paper's ⌊φ⌋(ge) = ge'
    requirement instantiated to our pass pipeline, which preserves global
    layouts). *)

open Cas_base

type env_action = {
  ret : Value.t;  (** value returned for an external call *)
  perturb : (string * int * int) option;
      (** optional Rely write: (global, offset, value) on both sides *)
}

(** A deterministic environment script: action for the [i]-th external
    interaction. *)
type env = int -> env_action

let default_env i =
  { ret = Value.Vint (100 + i); perturb = None }

type failure = {
  at_switch : int;
  reason : string;
}

type outcome =
  | Sim_ok of { switches : int; steps_src : int; steps_tgt : int }
  | Sim_fail of failure
  | Sim_inconclusive of string
      (** e.g. divergence bound hit before the next switch point *)

let pp_outcome ppf = function
  | Sim_ok r ->
    Fmt.pf ppf "ok (%d switch points, %d src / %d tgt steps)" r.switches
      r.steps_src r.steps_tgt
  | Sim_fail f -> Fmt.pf ppf "FAIL at switch %d: %s" f.at_switch f.reason
  | Sim_inconclusive s -> Fmt.pf ppf "inconclusive: %s" s

(** A reusable certificate of one checker run: the outcome plus the work
    it took to establish it. Verdicts are pure data, so the certificate
    cache can memoize them ([Cascompcert.Framework]) — a cache hit
    re-delivers the verdict with zero checker steps executed, which is
    the per-module half of the paper's certified separate compilation. *)
type verdict = {
  v_outcome : outcome;
  v_switches : int;  (** switch points crossed before the checker stopped *)
  v_steps_src : int;  (** source-side small steps executed *)
  v_steps_tgt : int;  (** target-side small steps executed *)
}

let verdict_steps v = v.v_steps_src + v.v_steps_tgt

(* ------------------------------------------------------------------ *)
(* Address correspondence β (the operational face of φ)                *)
(* ------------------------------------------------------------------ *)

type beta = {
  fwd : (Addr.t, Addr.t) Hashtbl.t;
  bwd : (Addr.t, Addr.t) Hashtbl.t;
}

let beta_create () = { fwd = Hashtbl.create 16; bwd = Hashtbl.create 16 }

(** Record/verify the correspondence a_src ↔ a_tgt, enforcing
    injectivity (wf(µ) in Fig. 8 requires µ.f injective). *)
let beta_match (b : beta) (src : Addr.t) (tgt : Addr.t) : bool =
  match (Hashtbl.find_opt b.fwd src, Hashtbl.find_opt b.bwd tgt) with
  | Some t, _ when not (Addr.equal t tgt) -> false
  | _, Some s when not (Addr.equal s src) -> false
  | Some _, Some _ -> true
  | _ ->
    Hashtbl.replace b.fwd src tgt;
    Hashtbl.replace b.bwd tgt src;
    true

let values_match b (v1 : Value.t) (v2 : Value.t) =
  match (v1, v2) with
  | Value.Vint a, Value.Vint c -> a = c
  | Value.Vptr a, Value.Vptr c -> beta_match b a c
  | Value.Vundef, Value.Vundef -> true
  | Value.Vundef, _ ->
    (* target may refine undef (e.g. an uninitialized temp materialized
       as a concrete register value); CompCert's Val.lessdef *)
    true
  | _ -> false

let msgs_match b (m1 : Msg.t) (m2 : Msg.t) =
  match (m1, m2) with
  | Msg.Tau, Msg.Tau | Msg.EntAtom, Msg.EntAtom | Msg.ExtAtom, Msg.ExtAtom ->
    true
  | Msg.Evt e1, Msg.Evt e2 -> Event.equal e1 e2
  | Msg.Ret v1, Msg.Ret v2 -> values_match b v1 v2
  | Msg.Call (f, a1), Msg.Call (g, a2)
  | Msg.TailCall (f, a1), Msg.TailCall (g, a2)
  | Msg.Call (f, a1), Msg.TailCall (g, a2)
  | Msg.TailCall (f, a1), Msg.Call (g, a2) ->
    (* a tail call is observationally a call whose return is forwarded *)
    String.equal f g
    && List.length a1 = List.length a2
    && List.for_all2 (values_match b) a1 a2
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Running one side to its next switch point                           *)
(* ------------------------------------------------------------------ *)

type 'core run_result =
  | Switch of Msg.t * Footprint.t * 'core * Memory.t * int
  | Run_abort
  | Run_nondet  (** target language must be deterministic (det(tl)) *)
  | Run_diverge

let run_to_switch (type code core) ?audit (lang : (code, core) Lang.t) fl core
    mem ~bound : core run_result =
  let rec go core mem acc steps =
    if steps > bound then Run_diverge
    else begin
      (* With an audit (--paranoid-fp), cross-check the streamed hash
         against the fingerprint string on every core the checker visits.
         The checker co-executes every pipeline stage, so this sweeps all
         IRs. *)
      (match audit with Some a -> Lang.audit_core a lang core | None -> ());
      match lang.Lang.step fl core mem with
      | [] -> Run_abort
      | [ Lang.Stuck_abort ] -> Run_abort
      | [ Lang.Next (Msg.Tau, fp, core', mem') ] ->
        go core' mem' (Footprint.union acc fp) (steps + 1)
      | [ Lang.Next (msg, fp, core', mem') ] ->
        Switch (msg, Footprint.union acc fp, core', mem', steps + 1)
      | _ :: _ :: _ -> Run_nondet
    end
  in
  go core mem Footprint.empty 0

(* ------------------------------------------------------------------ *)
(* The checker                                                          *)
(* ------------------------------------------------------------------ *)

(** The checker's bounds: a run stops as passed after [max_switches]
    switch points, and as inconclusive after [tau_bound] silent steps
    without one. *)
let max_switches = 64

let tau_bound = 50_000

(** Check (sl, ge, γ) ≼ (tl, ge', π) on the execution determined by
    [entry], [args] and the environment script [env]. With an [audit],
    every core either side visits is audited for hash collisions.

    Both modules are loaded with their own global environment (the passes
    preserve global declarations, so the block layouts coincide) and the
    same freelist. *)
let check_verdict (type code1 core1 code2 core2)
    ~(src : (code1, core1) Lang.t * code1)
    ~(tgt : (code2, core2) Lang.t * code2) ~(entry : string)
    ~(args : Value.t list) ?(env = default_env) ?audit () : verdict =
  let src_lang, src_code = src in
  let tgt_lang, tgt_code = tgt in
  let steps_s_total = ref 0 and steps_t_total = ref 0 in
  let switches_seen = ref 0 in
  let outcome =
  let genv_of glb = Genv.link [ glb ] in
  match
    ( genv_of (src_lang.Lang.globals_of src_code),
      genv_of (tgt_lang.Lang.globals_of tgt_code) )
  with
  | Error n, _ | _, Error n ->
    Sim_inconclusive (Fmt.str "global linking failed on %s" n)
  | Ok genv_s, Ok genv_t -> (
    let mem_s0 = Genv.init_memory genv_s in
    let mem_t0 = Genv.init_memory genv_t in
    let nglobals = Genv.block_count genv_s in
    let fl = Flist.make ~offset:nglobals ~stride:1 in
    (* shared region S: the global blocks; identical on both sides *)
    let shared = Memory.dom mem_s0 in
    let in_scope fp =
      Addr.Set.for_all
        (fun a -> Addr.Set.mem a shared || Flist.owns_addr fl a)
        (Footprint.locs fp)
    in
    let beta = beta_create () in
    Addr.Set.iter (fun a -> ignore (beta_match beta a a)) shared;
    let shared_related mem_s mem_t =
      Addr.Set.for_all
        (fun a ->
          match (Memory.peek mem_s a, Memory.peek mem_t a) with
          | Some v1, Some v2 -> values_match beta v1 v2
          | None, None -> true
          | _ -> false)
        shared
    in
    let fpmatch (delta : Footprint.t) (d : Footprint.t) =
      (* FPmatch(µ, ∆, δ) with φ = id on S (Fig. 8) *)
      let s_rs = Addr.Set.inter (Footprint.rs_set d) shared in
      let s_ws = Addr.Set.inter (Footprint.ws_set d) shared in
      Addr.Set.subset s_rs
        (Addr.Set.union (Footprint.rs_set delta) (Footprint.ws_set delta))
      && Addr.Set.subset s_ws (Footprint.ws_set delta)
    in
    let perturb_mem genv mem (g, ofs, v) ~perm =
      match Genv.find_block genv g with
      | None -> mem
      | Some b -> (
        match Memory.store ~perm mem (Addr.make b ofs) (Value.Vint v) with
        | Ok m -> m
        | Error _ -> mem)
    in
    match
      ( src_lang.Lang.init_core ~genv:genv_s src_code ~entry ~args,
        tgt_lang.Lang.init_core ~genv:genv_t tgt_code ~entry ~args )
    with
    | None, None -> Sim_inconclusive "entry not defined in either module"
    | Some _, None ->
      Sim_fail { at_switch = 0; reason = "entry missing in target" }
    | None, Some _ ->
      Sim_fail { at_switch = 0; reason = "entry missing in source" }
    | Some c_s, Some c_t ->
      let rec loop c_s mem_s c_t mem_t switches =
        switches_seen := switches;
        if switches >= max_switches then
          Sim_ok
            {
              switches;
              steps_src = !steps_s_total;
              steps_tgt = !steps_t_total;
            }
        else
          match
            run_to_switch ?audit src_lang fl c_s mem_s ~bound:tau_bound
          with
          | Run_diverge ->
            Sim_inconclusive "source diverges before next switch point"
          | Run_nondet ->
            Sim_fail
              { at_switch = switches; reason = "source module nondeterministic" }
          | Run_abort ->
            (* source aborts: target is allowed anything (refinement) *)
            Sim_ok
              {
                switches;
                steps_src = !steps_s_total;
                steps_tgt = !steps_t_total;
              }
          | Switch (msg_s, delta, c_s', mem_s', n_s) -> (
            steps_s_total := !steps_s_total + n_s;
            match
              run_to_switch ?audit tgt_lang fl c_t mem_t ~bound:tau_bound
            with
            | Run_diverge ->
              Sim_fail
                {
                  at_switch = switches;
                  reason = "target diverges where source switches";
                }
            | Run_nondet ->
              Sim_fail
                {
                  at_switch = switches;
                  reason = "target language nondeterministic (det(tl) fails)";
                }
            | Run_abort ->
              Sim_fail
                { at_switch = switches; reason = "target aborts, source does not" }
            | Switch (msg_t, d, c_t', mem_t', n_t) ->
              steps_t_total := !steps_t_total + n_t;
              if not (msgs_match beta msg_s msg_t) then
                Sim_fail
                  {
                    at_switch = switches;
                    reason =
                      Fmt.str "messages differ: source %a, target %a" Msg.pp
                        msg_s Msg.pp msg_t;
                  }
              else if not (in_scope delta) then
                Sim_fail
                  {
                    at_switch = switches;
                    reason =
                      Fmt.str "source footprint out of scope: %a" Footprint.pp
                        delta;
                  }
              else if not (in_scope d) then
                Sim_fail
                  {
                    at_switch = switches;
                    reason =
                      Fmt.str "target footprint out of scope: %a" Footprint.pp d;
                  }
              else if not (fpmatch delta d) then
                Sim_fail
                  {
                    at_switch = switches;
                    reason =
                      Fmt.str "FPmatch fails: source %a, target %a"
                        Footprint.pp delta Footprint.pp d;
                  }
              else if not (shared_related mem_s' mem_t') then
                Sim_fail
                  {
                    at_switch = switches;
                    reason = "shared memories unrelated at switch point";
                  }
              else
                (* Switch point passed. Apply the environment (Rely), then
                   resume both sides with footprints cleared. *)
                let continue_after c_s c_t mem_s mem_t =
                  loop c_s mem_s c_t mem_t (switches + 1)
                in
                let finished () =
                  switches_seen := switches + 1;
                  Sim_ok
                    {
                      switches = switches + 1;
                      steps_src = !steps_s_total;
                      steps_tgt = !steps_t_total;
                    }
                in
                (* Run one side to its final Ret after the other side
                   tail-called away; the forwarded return value must be
                   the environment's. *)
                let expect_ret (type code core) (lang : (code, core) Lang.t)
                    core mem (ret : Value.t) ~side =
                  match lang.Lang.after_external core (Some ret) with
                  | None ->
                    Sim_fail
                      {
                        at_switch = switches;
                        reason = side ^ " cannot resume after call";
                      }
                  | Some core -> (
                    match
                      run_to_switch ?audit lang fl core mem ~bound:tau_bound
                    with
                    | Switch (Msg.Ret v, _, _, _, _)
                      when values_match beta v ret || values_match beta ret v
                      ->
                      finished ()
                    | Switch (m, _, _, _, _) ->
                      Sim_fail
                        {
                          at_switch = switches;
                          reason =
                            Fmt.str
                              "%s should forward the tail-callee's return \
                               but emitted %a"
                              side Msg.pp m;
                        }
                    | _ ->
                      Sim_fail
                        {
                          at_switch = switches;
                          reason =
                            side
                            ^ " diverges/aborts instead of forwarding the \
                               tail-callee's return";
                        })
                in
                (match (msg_s, msg_t) with
                | Msg.Ret _, _ -> finished ()
                | Msg.TailCall _, Msg.TailCall _ -> finished ()
                | Msg.Call _, Msg.TailCall _ ->
                  (* target reuses its frame; source must return the
                     callee's value unchanged *)
                  let act = env switches in
                  expect_ret src_lang c_s' mem_s' act.ret ~side:"source"
                | Msg.TailCall _, Msg.Call _ ->
                  let act = env switches in
                  expect_ret tgt_lang c_t' mem_t' act.ret ~side:"target"
                | Msg.Call _, Msg.Call _ -> (
                  let act = env switches in
                  let mem_s, mem_t =
                    match act.perturb with
                    | None -> (mem_s', mem_t')
                    | Some p ->
                      ( perturb_mem genv_s mem_s' p ~perm:Perm.Normal,
                        perturb_mem genv_t mem_t' p ~perm:Perm.Normal )
                  in
                  match
                    ( src_lang.Lang.after_external c_s' (Some act.ret),
                      tgt_lang.Lang.after_external c_t' (Some act.ret) )
                  with
                  | Some c_s, Some c_t -> continue_after c_s c_t mem_s mem_t
                  | _ ->
                    Sim_fail
                      {
                        at_switch = switches;
                        reason = "resume after external failed";
                      })
                | _ -> continue_after c_s' c_t' mem_s' mem_t')
          )
      in
      loop c_s mem_s0 c_t mem_t0 0)
  in
  {
    v_outcome = outcome;
    v_switches = !switches_seen;
    v_steps_src = !steps_s_total;
    v_steps_tgt = !steps_t_total;
  }

(** Check (sl, ge, γ) ≼ (tl, ge', π), outcome only (see [check_verdict]
    for the reusable certificate). *)
let check ~src ~tgt ~entry ~args ?env () : outcome =
  (check_verdict ~src ~tgt ~entry ~args ?env ()).v_outcome

(* ------------------------------------------------------------------ *)
(* Determinism of a module language on reachable cores — det(tl)       *)
(* ------------------------------------------------------------------ *)

let det_on_run (type code core) (lang : (code, core) Lang.t) fl core mem
    ~bound : bool =
  let rec go core mem steps =
    if steps > bound then true
    else
      match lang.Lang.step fl core mem with
      | [] | [ Lang.Stuck_abort ] -> true
      | [ Lang.Next (Msg.Ret _, _, _, _) ] -> true
      | [ Lang.Next (_, _, core', mem') ] -> go core' mem' (steps + 1)
      | _ :: _ :: _ -> false
  in
  go core mem 0

(* ------------------------------------------------------------------ *)
(* Reach-closedness — Def. 4                                           *)
(* ------------------------------------------------------------------ *)

type rc_violation = { rc_step : int; rc_reason : string }

(** Executable check of ReachClose(sl, ge, γ) (Def. 4): along an execution
    of the module — interleaved with environment steps satisfying the rely
    R (shared writes of non-pointer values, which preserve closedness) —
    every step's footprint must satisfy HG: ∆ ⊆ F ∪ S, and the shared
    region stays closed (no pointers from S into any freelist). The
    compilation correctness theorems assume source modules are
    reach-closed; this is the premise-side check. *)
let check_reach_close (type code core) (lang : (code, core) Lang.t)
    (code : code) ~(entry : string) ~(args : Value.t list)
    ?(env = default_env) ?(max_steps = 20_000) () : rc_violation list =
  match Genv.link [ lang.Lang.globals_of code ] with
  | Error n -> [ { rc_step = 0; rc_reason = "global linking failed on " ^ n } ]
  | Ok genv -> (
    let mem0 = Genv.init_memory genv in
    let fl = Flist.make ~offset:(Genv.block_count genv) ~stride:1 in
    let shared = Memory.dom mem0 in
    match lang.Lang.init_core ~genv code ~entry ~args with
    | None -> []
    | Some core ->
      let violations = ref [] in
      let record step reason =
        violations := { rc_step = step; rc_reason = reason } :: !violations
      in
      let check_hg step (fp : Footprint.t) mem' =
        if
          not
            (Addr.Set.for_all
               (fun a -> Addr.Set.mem a shared || Flist.owns_addr fl a)
               (Footprint.locs fp))
        then record step (Fmt.str "footprint out of scope: %a" Footprint.pp fp);
        if not (Memory.closed_on shared mem') then
          record step "shared region not closed (stack pointer escaped)"
      in
      let rec go core mem step ncalls =
        if step >= max_steps then ()
        else
          match lang.Lang.step fl core mem with
          | [] | Lang.Stuck_abort :: _ -> ()
          | Lang.Next (msg, fp, core', mem') :: _ -> (
            check_hg step fp mem';
            match msg with
            | Msg.Ret _ | Msg.TailCall _ -> ()
            | Msg.Call _ -> (
              (* rely step: the environment may write shared integers *)
              let act = env ncalls in
              let mem' =
                match act.perturb with
                | None -> mem'
                | Some (g, ofs, v) -> (
                  match Genv.find_block genv g with
                  | None -> mem'
                  | Some b -> (
                    match
                      Memory.store mem' (Addr.make b ofs) (Value.Vint v)
                    with
                    | Ok m -> m
                    | Error _ -> mem'))
              in
              match lang.Lang.after_external core' (Some act.ret) with
              | Some core'' -> go core'' mem' (step + 1) (ncalls + 1)
              | None -> ())
            | _ -> go core' mem' (step + 1) ncalls)
      in
      go core mem0 0 0;
      List.rev !violations)
