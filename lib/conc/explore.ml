(** Bounded-exhaustive state-space exploration: the interface behind every
    empirical check in this reproduction (DRF, trace refinement, the
    preemptive/non-preemptive equivalence, and the TSO machine of §7.3).
    It is generic in the world type; [Cas_tso] instantiates it with
    store-buffer worlds. Worlds are memoized by canonical fingerprint.

    The engines themselves live in [Cas_mc]; this module keeps the
    historical [system]/[gsucc] interface (successor functions without
    footprints) and adapts it to [Cas_mc.Mcsys] with unknown thread ids —
    such systems are explorable only by the naive engine. Footprint-aware
    systems that the DPOR engines can reduce are built in
    [Cas_conc.Engine] and [Cas_tso]. *)

open Cas_base

(** A transition system over worlds of type ['w]. *)
type 'w gsucc = GNext of World.gmsg * 'w | GAbort

type 'w system = {
  fingerprint : 'w -> string;
  all_done : 'w -> bool;
  steps : 'w -> 'w gsucc list;
}

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

(** Adapt a successor-function system to the model-checking interface.
    Thread ids and footprints are unknown here (tid = -1, empty fp), so
    the result must only be explored naively — [Mcsys.dependent] would be
    vacuous on it. *)
let to_mc (sys : 'w system) : 'w Cas_mc.Mcsys.t =
  {
    Cas_mc.Mcsys.fingerprint = sys.fingerprint;
    all_done = sys.all_done;
    trans =
      (fun w ->
        List.map
          (fun s ->
            match s with
            | GAbort ->
              {
                Cas_mc.Mcsys.tid = -1;
                label = Cas_mc.Mcsys.Ltau;
                fp = Footprint.empty;
                target = Cas_mc.Mcsys.Abort;
              }
            | GNext (g, w') ->
              let label =
                match g with
                | World.Gevt e -> Cas_mc.Mcsys.Levt e
                | World.Gtau -> Cas_mc.Mcsys.Ltau
                | World.Gsw -> Cas_mc.Mcsys.Lsw
              in
              {
                Cas_mc.Mcsys.tid = -1;
                label;
                fp = Footprint.empty;
                target = Cas_mc.Mcsys.Next w';
              })
          (sys.steps w));
  }

(** Breadth-first reachability. [visit] is called once per distinct world.
    [recorder], when given, records the schedule spanning tree — note the
    adapted system carries no thread ids (every recorded step has
    tid = -1), so recordings of this view identify worlds, not threads. *)
let reachable_gen ?max_worlds ?recorder (sys : 'w system)
    (initials : 'w list) ~(visit : 'w -> unit) : stats =
  stats_of_mc
    (Cas_mc.Naive.reachable ?max_worlds ?recorder (to_mc sys) initials
       ~visit:(fun w _ -> visit w))

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
let trace_key = Cas_mc.Trace.key

module TraceSet = Cas_mc.Trace.Set

type trace_result = Cas_mc.Trace.result = {
  traces : TraceSet.t;
  complete : bool;
      (** false if the path/step budget was exhausted anywhere *)
}

(** Enumerate event traces along cycle-free schedule paths (depth-first,
    cutting when a world repeats on the current path — the continuation
    is a divergent schedule — or when budgets are exhausted). *)
let traces_gen ?max_steps ?max_paths (sys : 'w system) (initials : 'w list) :
    trace_result =
  fst (Cas_mc.Naive.traces ?max_steps ?max_paths (to_mc sys) initials)

(* ------------------------------------------------------------------ *)
(* Instantiation for the interleaving worlds of [World]                *)
(* ------------------------------------------------------------------ *)

let world_system (step : Gsem.stepf) : World.t system =
  {
    fingerprint = World.key;
    all_done = World.all_done;
    steps =
      (fun w ->
        List.map
          (function
            | Gsem.Abort -> GAbort
            | Gsem.Next (g, _, w') -> GNext (g, w'))
          (step w));
  }

let reachable ?max_worlds ?recorder (step : Gsem.stepf)
    (initials : World.t list) ~(visit : World.t -> unit) : stats =
  reachable_gen ?max_worlds ?recorder (world_system step) initials ~visit

let traces ?max_steps ?max_paths (step : Gsem.stepf) (initials : World.t list)
    : trace_result =
  traces_gen ?max_steps ?max_paths (world_system step) initials

(* ------------------------------------------------------------------ *)
(* Product search: event-property reachability                         *)
(* ------------------------------------------------------------------ *)

(** Breadth-first search over the product of the world graph with a
    user-supplied event automaton: [step_state] folds observable events
    into a monitor state, and the search reports whether a world with an
    [accept]ing monitor state is reachable. Unlike [traces_gen], this is
    memoized over (world, monitor-state) pairs, so properties of the
    event *language* (e.g. "two critical-section entries overlap") can be
    decided on graphs whose path trees are astronomically large. *)
let search (sys : 'w system) (initials : 'w list) ~(init : 's)
    ~(step_state : 's -> Event.t -> 's) ~(accept : 's -> bool)
    ~(state_fp : 's -> string) ?(max_worlds = 500_000) () : bool =
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let found = ref false in
  let push w st =
    let fp = sys.fingerprint w ^ "#" ^ state_fp st in
    if (not (Hashtbl.mem seen fp)) && Hashtbl.length seen < max_worlds then begin
      Hashtbl.add seen fp ();
      Queue.add (w, st) queue
    end
  in
  List.iter (fun w -> push w init) initials;
  while (not !found) && not (Queue.is_empty queue) do
    let w, st = Queue.pop queue in
    if accept st then found := true
    else
      List.iter
        (function
          | GAbort -> ()
          | GNext (gmsg, w') ->
            let st' =
              match gmsg with
              | World.Gevt e -> step_state st e
              | World.Gtau | World.Gsw -> st
            in
            if accept st' then found := true else push w' st')
        (sys.steps w)
  done;
  !found
