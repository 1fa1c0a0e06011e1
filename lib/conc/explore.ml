(** Exploration results shared by every empirical check in this
    reproduction (DRF, trace refinement, the preemptive/non-preemptive
    equivalence, and the TSO machine of §7.3), and the event-property
    search.

    The engines live in [Cas_mc] and explore an [Cas_mc.Mcsys.t]: the
    thread-selection systems of [Cas_conc.Engine] (preemptive SC) and
    [Cas_tso.Tso.mc_system] (x86-TSO), or a step function adapted by
    [Gsem.system] (the non-preemptive semantics). This module keeps the
    statistics record of [Race.drf_report] and the trace vocabulary. *)

type stats = {
  visited : int;  (** distinct worlds reached *)
  transitions : int;
  truncated : bool;  (** hit the world cap — results are partial *)
  abort_reachable : bool;
}

let pp_stats ppf s =
  Fmt.pf ppf "%d worlds, %d transitions%s%s" s.visited s.transitions
    (if s.truncated then " (truncated)" else "")
    (if s.abort_reachable then " (abort reachable)" else "")

let stats_of_mc (s : Cas_mc.Stats.t) : stats =
  {
    visited = s.Cas_mc.Stats.worlds;
    transitions = s.Cas_mc.Stats.transitions;
    truncated = s.Cas_mc.Stats.truncated;
    abort_reachable = s.Cas_mc.Stats.abort_reachable;
  }

(* ------------------------------------------------------------------ *)
(* Trace enumeration                                                   *)
(* ------------------------------------------------------------------ *)

(** Termination status of an enumerated execution: [SDone] — all threads
    finished; [SAbort] — some thread aborted; [SCut] — the execution was
    cut at a cycle or at the step budget (a divergent or unfinished
    schedule). *)
type status = Cas_mc.Trace.status = SDone | SAbort | SCut

type trace = Cas_mc.Trace.t

let pp_status = Cas_mc.Trace.pp_status
let pp_trace = Cas_mc.Trace.pp

module TraceSet = Cas_mc.Trace.Set

type trace_result = Cas_mc.Trace.result = {
  traces : TraceSet.t;
  complete : bool;
      (** false if the path/step budget was exhausted anywhere *)
}

(* ------------------------------------------------------------------ *)
(* Product search: event-property reachability                         *)
(* ------------------------------------------------------------------ *)

(** Outcome of [search]: an accepting state was reached, the search was
    exhaustive without reaching one, or the state cap cut it short
    before one was found. *)
type search_result = Reachable | Unreachable | Truncated

let pp_search_result ppf r =
  Fmt.string ppf
    (match r with
    | Reachable -> "reachable"
    | Unreachable -> "unreachable"
    | Truncated -> "unknown (state cap reached)")

(** Breadth-first search over the product of a system with a
    user-supplied event automaton: [step_state] folds observable events
    into a monitor state, and the search reports whether a world with an
    [accept]ing monitor state is reachable. Unlike trace enumeration,
    this is memoized over (world, monitor-state) pairs, so properties of
    the event *language* (e.g. "two critical-section entries overlap")
    can be decided on graphs whose path trees are astronomically large.
    Past [max_worlds] pairs, new pairs are dropped, and a search that
    then finds nothing answers [Truncated]. *)
let search (sys : 'w Cas_mc.Mcsys.t) (initials : 'w list) ~(init : 's)
    ~(step_state : 's -> Cas_base.Event.t -> 's) ~(accept : 's -> bool)
    ~(state_fp : 's -> string) ?(max_worlds = 500_000) () : search_result =
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let found = ref false in
  let truncated = ref false in
  let push w st =
    let fp = sys.Cas_mc.Mcsys.fingerprint w ^ "#" ^ state_fp st in
    if not (Hashtbl.mem seen fp) then
      if Hashtbl.length seen < max_worlds then begin
        Hashtbl.add seen fp ();
        Queue.add (w, st) queue
      end
      else truncated := true
  in
  List.iter (fun w -> push w init) initials;
  while (not !found) && not (Queue.is_empty queue) do
    let w, st = Queue.pop queue in
    if accept st then found := true
    else
      List.iter
        (fun (tr : 'w Cas_mc.Mcsys.trans) ->
          match tr.Cas_mc.Mcsys.target with
          | Cas_mc.Mcsys.Abort -> ()
          | Cas_mc.Mcsys.Next w' ->
            let st' =
              match tr.Cas_mc.Mcsys.label with
              | Cas_mc.Mcsys.Levt e -> step_state st e
              | Cas_mc.Mcsys.Ltau | Cas_mc.Mcsys.Lsw -> st
            in
            if accept st' then found := true else push w' st')
        (sys.Cas_mc.Mcsys.trans w)
  done;
  if !found then Reachable else if !truncated then Truncated else Unreachable
