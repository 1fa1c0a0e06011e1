(** Engine-parameterized exploration of interleaving worlds.

    Every engine explores one graph of the preemptive semantics: the
    *thread-selection view* this module builds. There are no explicit
    switch transitions: a transition is "thread [t] takes one local
    step", worlds are keyed by [World.key_nocur], and footprints come
    straight from the local semantics (Fig. 4). If a thread holds the
    atomic bit, only it is schedulable — exactly the preemptive Switch
    side-condition d = 0. [Naive] is unreduced search of this graph and
    the DPOR engines reduce it, so their world counts and trace sets
    are comparable. The same graph keyed by the full fingerprint
    strings ([selection Fingerprint]) is what [--paranoid-fp] explores
    and what witnesses are captured and replayed on.

    Fig. 7's scheduler-explicit step function ([Preemptive.steps]) stays
    as the paper's reference; [test/test_mc.ml] checks that it has the
    observables of this view (completed event traces, abort
    reachability, DRF verdicts, all [cur]-independent).

    The non-preemptive semantics intentionally stays naive-only
    ([np_explore], [np_traces]): an np world steps only through the
    region of its one current thread, so per-state scheduling choice —
    the branching DPOR prunes — is already collapsed by the np
    reduction itself (§3.3); DPOR would degenerate to plain DFS there. *)

open Cas_base

type t = Cas_mc.Engine.t = Naive | Dpor | Dpor_par

let of_string = Cas_mc.Engine.of_string
let to_string = Cas_mc.Engine.to_string
let pp = Cas_mc.Engine.pp
let all = Cas_mc.Engine.all

let label_of_msg : Msg.t -> Cas_mc.Mcsys.label = function
  | Msg.Evt e -> Cas_mc.Mcsys.Levt e
  | Msg.Tau | Msg.Ret _ | Msg.EntAtom | Msg.ExtAtom | Msg.Call _
  | Msg.TailCall _ ->
    Cas_mc.Mcsys.Ltau

(** Threads the selection view may schedule: the atomic-bit holder alone
    if there is one (at most one in any reachable preemptive world),
    every live thread otherwise. *)
let schedulable (w : World.t) : int list =
  let live = World.live_tids w in
  match List.filter (fun t -> World.dbit w t) live with
  | [] -> live
  | holders -> holders

(** Accumulated footprint of the atomic block thread [tid] is inside in
    [w] (as in Predict-1 of Fig. 9: conflict is monotone in the
    footprint, so the maximal accumulated footprint covers every prefix). *)
let atomic_block_fp (w : World.t) tid ~bound : Footprint.t =
  let rec go w acc bound =
    if bound = 0 then acc
    else
      let succs = World.local_steps w tid in
      List.fold_left
        (fun acc s ->
          match s with
          | World.LAbort -> acc
          | World.LNext (Msg.ExtAtom, fp, _) -> Footprint.union acc fp
          | World.LNext (_, fp, w') ->
            go w' (Footprint.union acc fp) (bound - 1))
        acc succs
  in
  go w Footprint.empty bound

(** The preemptive semantics as a footprint-instrumented selection
    system. Successor worlds keep [cur] pointing at the scheduled thread
    so world-predicates that read it behave as in the preemptive view
    (the fingerprint ignores it).

    Atomic blocks are summarized at their entry: the [EntAtom] transition
    carries the accumulated footprint of the whole block (bounded as in
    the race predictor), and the steps inside the block — taken while the
    thread holds the atomic bit, when no other thread is schedulable —
    carry an empty footprint. Without this, a conflict discovered against
    an in-block step would ask for a backtrack at a frame where only the
    block's owner was enabled (a no-op), and the opposite block order
    would never be explored; with it, block-vs-block and block-vs-access
    orderings hang off the entry transition, where every contender was
    still schedulable. *)
let selection_system : World.t Cas_mc.Mcsys.t =
  {
    Cas_mc.Mcsys.fingerprint = World.key_nocur;
    all_done = World.all_done;
    trans =
      (fun w ->
        List.concat_map
          (fun tid ->
            let in_block = World.dbit w tid in
            List.map
              (fun s ->
                match s with
                | World.LAbort ->
                  {
                    Cas_mc.Mcsys.tid;
                    label = Cas_mc.Mcsys.Ltau;
                    fp = Footprint.empty;
                    target = Cas_mc.Mcsys.Abort;
                  }
                | World.LNext (msg, fp, w') ->
                  let fp =
                    if in_block then Footprint.empty
                    else
                      match msg with
                      | Msg.EntAtom ->
                        Footprint.union fp
                          (atomic_block_fp w' tid ~bound:1000)
                      | _ -> fp
                  in
                  {
                    Cas_mc.Mcsys.tid;
                    label = label_of_msg msg;
                    fp;
                    target = Cas_mc.Mcsys.Next { w' with World.cur = tid };
                  })
              (World.local_steps w tid))
          (schedulable w));
  }

(** The selection view under the given state keys: [selection_system],
    or the same graph keyed by [World.fingerprint_nocur]. *)
let selection : Cas_mc.Mcsys.keys -> World.t Cas_mc.Mcsys.t =
  let by_fingerprint =
    { selection_system with Cas_mc.Mcsys.fingerprint = World.fingerprint_nocur }
  in
  function
  | Cas_mc.Mcsys.Hash -> selection_system
  | Cas_mc.Mcsys.Fingerprint -> by_fingerprint

(** Engine-selected reachability from a loaded world. [visit] fires once
    per distinct world; with the DPOR engines the visited worlds are a
    representative subset, so [visit] must compute order-insensitive
    facts. *)
let explore ?engine ?jobs ?max_worlds (w0 : World.t)
    ~(visit : World.t -> unit) : Cas_mc.Stats.t =
  Cas_mc.Engine.reachable ?engine ?jobs ?max_worlds selection_system [ w0 ]
    ~visit

(** Engine-selected trace enumeration from a loaded world. *)
let traces ?engine ?jobs ?max_steps ?max_paths (w0 : World.t) :
    Explore.trace_result * Cas_mc.Stats.t =
  Cas_mc.Engine.traces ?engine ?jobs ?max_steps ?max_paths selection_system
    [ w0 ]

(** The non-preemptive semantics (§3.3) as a naive-explored system, from
    one world per choice of initial thread. *)
let np_system = Gsem.system Nonpreemptive.steps

let np_explore ?max_worlds (w0 : World.t) ~(visit : World.t -> unit) :
    Cas_mc.Stats.t =
  Cas_mc.Naive.reachable ?max_worlds np_system (Gsem.initials w0)
    ~visit:(fun w _ -> visit w)

let np_traces ?max_steps ?max_paths (w0 : World.t) : Explore.trace_result =
  fst (Cas_mc.Naive.traces ?max_steps ?max_paths np_system (Gsem.initials w0))
