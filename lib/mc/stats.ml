(** Engine statistics, threaded back to every caller of [Cas_mc.Engine]:
    how many distinct worlds were explored, how much the reductions
    pruned, and whether any budget truncated the search (in which case
    verdicts are bounded, as everywhere in this reproduction). *)

type t = {
  engine : string;
  worlds : int;
      (** distinct worlds reached (canonical-store misses); dpor keys
          and steps each when it admits it, and later visits reach it
          through resolved edges (see [store_hits]); naive trace
          enumeration counts the distinct worlds it stepped *)
  transitions : int;  (** transitions executed *)
  sleep_prunings : int;  (** scheduling choices skipped by sleep sets *)
  backtracks : int;  (** wakeup-sequence insertions by the DPOR core *)
  steals : int;  (** tasks taken from another domain's deque *)
  store_hits : int;
      (** canonical-store hits (worlds re-encountered); under dpor a
          revisit through an edge whose target is already resolved
          counts as one, though it does not probe the table; naive
          trace enumeration counts the path visits that reused a stepped
          world *)
  truncated : bool;  (** a world/path/depth budget was exhausted *)
  abort_reachable : bool;
  wall_ns : float;  (** wall-clock exploration time *)
}

let zero ~engine =
  {
    engine;
    worlds = 0;
    transitions = 0;
    sleep_prunings = 0;
    backtracks = 0;
    steals = 0;
    store_hits = 0;
    truncated = false;
    abort_reachable = false;
    wall_ns = 0.;
  }

let pp ppf s =
  Fmt.pf ppf "[%s] %d worlds, %d transitions" s.engine s.worlds s.transitions;
  if s.sleep_prunings > 0 then Fmt.pf ppf ", %d sleep-pruned" s.sleep_prunings;
  if s.backtracks > 0 then Fmt.pf ppf ", %d wakeup insertions" s.backtracks;
  if s.steals > 0 then Fmt.pf ppf ", %d steals" s.steals;
  if s.truncated then Fmt.pf ppf " (truncated)";
  if s.abort_reachable then Fmt.pf ppf " (abort reachable)";
  if s.wall_ns > 0. then Fmt.pf ppf " in %.2fms" (s.wall_ns /. 1e6)
