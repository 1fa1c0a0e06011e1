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
    layouts).

    The checker has two parts. A [side] is one module's run from its
    entry, cut at switch points and computed lazily, as far as a check
    forces it. A core holds only its entry function and its globals, and
    every call leaves at a switch point, where the side resumes with the
    environment's answer and Rely write; so a side never reads the other
    side, and one side serves every check of the same run. A switch
    point records the message, the footprint, the memory and the run
    after it, not the core. [check_sides] applies the obligations above
    to two sides, switch point by switch point; where one side
    tail-calls and the other calls, it reads the caller's run after the
    call, whose return is one more switch point: it must return the
    environment's answer, and the obligations hold against the
    tail-caller's empty footprint and its memory after the Rely write.
    [Framework.check_passes] thereby runs each pipeline stage once for
    the two passes it borders; [check_verdict] is the one-pair form. *)

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

(** The outcome's text, appended to [b]: the one rendering of a verdict,
    shared by the certify rows ([Framework.add_pass_sim]), [pp_outcome]
    and the certificate entries ([Cas_link.Cert]), whose digest chain
    folds it in, so object files change with it. *)
let add_outcome b = function
  | Sim_ok r ->
    Buffer.add_string b "ok (";
    Buffer.add_string b (string_of_int r.switches);
    Buffer.add_string b " switch points, ";
    Buffer.add_string b (string_of_int r.steps_src);
    Buffer.add_string b " src / ";
    Buffer.add_string b (string_of_int r.steps_tgt);
    Buffer.add_string b " tgt steps)"
  | Sim_fail f ->
    Buffer.add_string b "FAIL at switch ";
    Buffer.add_string b (string_of_int f.at_switch);
    Buffer.add_string b ": ";
    Buffer.add_string b f.reason
  | Sim_inconclusive s ->
    Buffer.add_string b "inconclusive: ";
    Buffer.add_string b s

let outcome_text o =
  let b = Buffer.create 64 in
  add_outcome b o;
  Buffer.contents b

let pp_outcome ppf o = Fmt.string ppf (outcome_text o)

(** A reusable certificate of one check: the outcome plus the length of
    the co-execution that established it. Verdicts are pure data, so the
    certificate cache can memoize them ([Cascompcert.Framework]) — a
    cache hit re-delivers the verdict with zero checker steps, which is
    the per-module half of the paper's certified separate compilation. *)
type verdict = {
  v_outcome : outcome;
  v_switches : int;  (** switch points crossed before the checker stopped *)
  v_steps_src : int;  (** the source side's small steps in the co-execution *)
  v_steps_tgt : int;  (** the target side's small steps in the co-execution *)
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
(* One side: a module's run from its entry, cut at switch points       *)
(* ------------------------------------------------------------------ *)

(** The checker's bounds: a run stops as passed after [max_switches]
    switch points, and as inconclusive after [tau_bound] silent steps
    without one. *)
let max_switches = 64

let tau_bound = 50_000

(** A run from some core up to its next switch point, and the run after
    it. *)
type run =
  | Switch of switch
  | Abort
  | Nondet  (** the language must be deterministic (det(tl)) *)
  | Diverge  (** [tau_bound] silent steps without a switch point *)

and switch = {
  msg : Msg.t;
  fp : Footprint.t;  (** accumulated since the previous switch point *)
  mem : Memory.t;  (** the memory at the switch point, before the Rely *)
  steps : int;  (** steps since the previous switch point *)
  next : run Lazy.t option;
      (** the run after the switch point: as-is after an event or an
          atomic-block marker, and with the environment's answer and Rely
          write after a [Call]. [None] after a return, a tail call, or a
          call the core cannot resume from. *)
}

let run_to_switch (type code core) ?audit (lang : (code, core) Lang.t) fl core
    mem ~(next : Msg.t -> core -> Memory.t -> run Lazy.t option) : run =
  let rec go core mem acc steps =
    if steps > tau_bound then Diverge
    else begin
      (* With an audit (--paranoid-fp), cross-check the streamed hash
         against the fingerprint string on every core the checker visits.
         The checker runs every pipeline stage, so this sweeps all IRs. *)
      (match audit with Some a -> Lang.audit_core a lang core | None -> ());
      match lang.Lang.step fl core mem with
      | [] -> Abort
      | [ Lang.Stuck_abort ] -> Abort
      | [ Lang.Next (Msg.Tau, fp, core', mem') ] ->
        go core' mem' (Footprint.union acc fp) (steps + 1)
      | [ Lang.Next (msg, fp, core', mem') ] ->
        Switch
          {
            msg;
            fp = Footprint.union acc fp;
            mem = mem';
            steps = steps + 1;
            next = next msg core' mem';
          }
      | _ :: _ :: _ -> Nondet
    end
  in
  go core mem Footprint.empty 0

(** The environment's Rely write (global, offset, value), where the
    store is allowed. *)
let perturb_mem genv mem (g, ofs, v) =
  match Genv.find_block genv g with
  | None -> mem
  | Some b -> (
    match
      Memory.store ~perm:Perm.Normal mem (Addr.make b ofs) (Value.Vint v)
    with
    | Ok m -> m
    | Error _ -> mem)

(** The memory after the environment's action [act]: its Rely write, if
    any. *)
let rely genv mem act =
  Option.fold ~none:mem ~some:(perturb_mem genv mem) act.perturb

(** One side of a check: a module's run from its entry, under the
    environment script [env], cut at switch points and computed only as
    far as a check forces it. The run reads nothing but the entry's
    body, the module's globals, the freelist, the arguments and the
    environment; in particular it never reads the other side, so one
    side serves every check it takes part in. *)
type side =
  | Unlinked of string  (** the module's globals do not link, on this name *)
  | Side of {
      genv : Genv.t;  (** where the Rely writes *)
      fl : Flist.t;
      shared : Addr.Set.t Lazy.t;
          (** S: the global addresses, the domain of the initial memory *)
      region : Footprint.region Lazy.t;  (** S as a bitset *)
      env : env;
      run : run Lazy.t option;
          (** [None]: the module does not define the entry *)
    }

(** The freelist of a check: the blocks above the source's globals (from
    block 0 when they do not link; such a check runs nothing). *)
let freelist = function
  | Ok genv -> Flist.make ~offset:(Genv.block_count genv) ~stride:1
  | Error _ -> Flist.make ~offset:0 ~stride:1

(** The side of module [m], whose globals linked to [genv], on the
    freelist [fl]. Both sides of a check take the source's freelist. *)
let side ?(env = default_env) ?audit (Lang.Mod (lang, code)) ~genv ~fl
    ~entry ~args : side =
  match genv with
  | Error n -> Unlinked n
  | Ok genv ->
    let mem0 = Genv.init_memory genv in
    let rec from i core mem =
      run_to_switch ?audit lang fl core mem ~next:(fun msg core mem ->
          match msg with
          | Msg.Ret _ | Msg.TailCall _ -> None
          | Msg.Call _ -> (
            let act = env i in
            match lang.Lang.after_external core (Some act.ret) with
            | None -> None
            | Some core -> Some (lazy (from (i + 1) core (rely genv mem act))))
          | _ -> Some (lazy (from (i + 1) core mem)))
    in
    let shared = lazy (Memory.dom mem0) in
    Side
      {
        genv;
        fl;
        shared;
        region = lazy (Footprint.region (Lazy.force shared));
        env;
        run =
          Option.map
            (fun core -> lazy (from 0 core mem0))
            (lang.Lang.init_core ~genv code ~entry ~args);
      }

(* ------------------------------------------------------------------ *)
(* The checker                                                          *)
(* ------------------------------------------------------------------ *)

(* The other side tail-called away at switch point [at_switch], so this
   side's run after its call, resumed with the environment's answer and
   Rely write, must return that answer unchanged. The return is one more
   switch point, whose other obligations [forwarded] checks. *)
let forwards ~side env beta (sw : switch) ~at_switch ~forwarded ~finished =
  match sw.next with
  | None -> Sim_fail { at_switch; reason = side ^ " cannot resume after call" }
  | Some run -> (
    let ret = (env at_switch).ret in
    match Lazy.force run with
    | Switch ({ msg = Msg.Ret v; _ } as r)
      when values_match beta v ret || values_match beta ret v -> (
      match forwarded r with
      | None -> finished ()
      | Some reason -> Sim_fail { at_switch; reason })
    | Switch { msg; _ } ->
      Sim_fail
        {
          at_switch;
          reason =
            Fmt.str "%s should forward the tail-callee's return but emitted %a"
              side Msg.pp msg;
        }
    | _ ->
      Sim_fail
        {
          at_switch;
          reason =
            side
            ^ " diverges/aborts instead of forwarding the tail-callee's return";
        })

(** Check (sl, ge, γ) ≼ (tl, ge', π) on two sides of one entry, switch
    point by switch point. At every switch point the checker verifies
    the obligations of Def. 3 in this order: the messages match, both
    footprints are in scope, FPmatch, and the shared memories are
    related. Steps count the co-execution this verdict certifies: a side
    shared with other checks counts in each of them. *)
let check_sides (src : side) (tgt : side) : verdict =
  let steps_s_total = ref 0 and steps_t_total = ref 0 in
  let switches_seen = ref 0 in
  let outcome =
    match (src, tgt) with
    | Unlinked n, _ | _, Unlinked n ->
      Sim_inconclusive (Fmt.str "global linking failed on %s" n)
    | Side s, Side t -> (
      match (s.run, t.run) with
      | None, None -> Sim_inconclusive "entry not defined in either module"
      | Some _, None ->
        Sim_fail { at_switch = 0; reason = "entry missing in target" }
      | None, Some _ ->
        Sim_fail { at_switch = 0; reason = "entry missing in source" }
      | Some run_s, Some run_t ->
        (* shared region S: the source's global blocks *)
        let shared = Lazy.force s.shared in
        let region = Lazy.force s.region in
        let fl = s.fl in
        let in_scope fp =
          Footprint.for_all
            (fun a -> Addr.Set.mem a shared || Flist.owns_addr fl a)
            fp
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
        let ok switches =
          Sim_ok
            { switches; steps_src = !steps_s_total; steps_tgt = !steps_t_total }
        in
        (* Def. 3's obligations once the messages match: both footprints
           in scope, FPmatch, and related shared memories. *)
        let obligations ~fp_s ~fp_t ~mem_s ~mem_t =
          if not (in_scope fp_s) then
            Some
              (Fmt.str "source footprint out of scope: %a" Footprint.pp fp_s)
          else if not (in_scope fp_t) then
            Some
              (Fmt.str "target footprint out of scope: %a" Footprint.pp fp_t)
          else if not (Footprint.fpmatch ~shared:region ~src:fp_s ~tgt:fp_t)
          then
            Some
              (Fmt.str "FPmatch fails: source %a, target %a" Footprint.pp fp_s
                 Footprint.pp fp_t)
          else if not (shared_related mem_s mem_t) then
            Some "shared memories unrelated at switch point"
          else None
        in
        let rec loop run_s run_t switches =
          switches_seen := switches;
          if switches >= max_switches then ok switches
          else
            let fail reason = Sim_fail { at_switch = switches; reason } in
            match Lazy.force run_s with
            | Diverge ->
              Sim_inconclusive "source diverges before next switch point"
            | Nondet -> fail "source module nondeterministic"
            | Abort ->
              (* source aborts: target is allowed anything (refinement) *)
              ok switches
            | Switch a -> (
              steps_s_total := !steps_s_total + a.steps;
              match Lazy.force run_t with
              | Diverge -> fail "target diverges where source switches"
              | Nondet ->
                fail "target language nondeterministic (det(tl) fails)"
              | Abort -> fail "target aborts, source does not"
              | Switch b -> (
                steps_t_total := !steps_t_total + b.steps;
                if not (msgs_match beta a.msg b.msg) then
                  fail
                    (Fmt.str "messages differ: source %a, target %a" Msg.pp
                       a.msg Msg.pp b.msg)
                else
                  match
                    obligations ~fp_s:a.fp ~fp_t:b.fp ~mem_s:a.mem ~mem_t:b.mem
                  with
                  | Some reason -> fail reason
                  | None -> (
                    (* Switch point passed: the sides' runs go on after the
                       environment (Rely), with footprints cleared. *)
                    let finished () =
                      switches_seen := switches + 1;
                      ok (switches + 1)
                    in
                    match (a.msg, b.msg) with
                    | Msg.Ret _, _ | Msg.TailCall _, Msg.TailCall _ ->
                      finished ()
                    | Msg.Call _, Msg.TailCall _ ->
                      (* target reuses its frame; source must return the
                         callee's value unchanged, against the target's
                         empty footprint and its memory after the Rely *)
                      forwards ~side:"source" s.env beta a ~at_switch:switches
                        ~finished ~forwarded:(fun r ->
                          obligations ~fp_s:r.fp ~fp_t:Footprint.empty
                            ~mem_s:r.mem
                            ~mem_t:(rely t.genv b.mem (t.env switches)))
                    | Msg.TailCall _, Msg.Call _ ->
                      forwards ~side:"target" t.env beta b ~at_switch:switches
                        ~finished ~forwarded:(fun r ->
                          obligations ~fp_s:Footprint.empty ~fp_t:r.fp
                            ~mem_s:(rely s.genv a.mem (s.env switches))
                            ~mem_t:r.mem)
                    | _ -> (
                      match (a.next, b.next) with
                      | Some run_s, Some run_t ->
                        loop run_s run_t (switches + 1)
                      | _ -> fail "resume after external failed"))))
        in
        loop run_s run_t 0)
  in
  {
    v_outcome = outcome;
    v_switches = !switches_seen;
    v_steps_src = !steps_s_total;
    v_steps_tgt = !steps_t_total;
  }

(** Check (sl, ge, γ) ≼ (tl, ge', π) on the execution determined by
    [entry], [args] and the environment script [env]. With an [audit],
    every core either side visits is audited for hash collisions.

    Both modules are loaded with their own global environment (the passes
    preserve global declarations, so the block layouts coincide) and the
    same freelist. *)
let check_verdict (type code1 core1 code2 core2)
    ~(src : (code1, core1) Lang.t * code1)
    ~(tgt : (code2, core2) Lang.t * code2) ~(entry : string)
    ~(args : Value.t list) ?env ?audit () : verdict =
  let genv (lang, code) = Genv.link [ lang.Lang.globals_of code ] in
  let genv_s = genv src in
  let fl = freelist genv_s in
  let side (lang, code) genv =
    side ?env ?audit (Lang.Mod (lang, code)) ~genv ~fl ~entry ~args
  in
  check_sides (side src genv_s) (side tgt (genv tgt))

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
            (Footprint.for_all
               (fun a -> Addr.Set.mem a shared || Flist.owns_addr fl a)
               fp)
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
              let mem' = rely genv mem' act in
              match lang.Lang.after_external core' (Some act.ret) with
              | Some core'' -> go core'' mem' (step + 1) (ncalls + 1)
              | None -> ())
            | _ -> go core' mem' (step + 1) ncalls)
      in
      go core mem0 0 0;
      List.rev !violations)
