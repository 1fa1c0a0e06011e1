(** Global transition interface shared by the preemptive and
    non-preemptive semantics: a world steps to a set of successors, each
    labelled with a global message o ::= τ | e | sw and a footprint. *)

open Cas_base

type succ =
  | Next of World.gmsg * Footprint.t * World.t
  | Abort

(** A global semantics is a successor function. *)
type stepf = World.t -> succ list

(** Both semantics choose the initial thread nondeterministically
    (t ∈ dom(T) in the Load rule), so exploration starts from one world
    per choice of initial thread. *)
let initials (w : World.t) : World.t list =
  match World.live_tids w with
  | [] -> [ w ]
  | tids -> List.map (fun t -> { w with cur = t }) tids

(** A global semantics as an explorable system. A transition belongs to
    the thread that takes it: the current thread for a local step (and
    for the non-preemptive semantics' combined step-and-switch), the
    thread switched to for a [Gsw] step. Worlds are keyed with [cur],
    which is part of the state here, so only the naive engine may
    explore the result: DPOR needs scheduler-independent keys. *)
let system (step : stepf) : World.t Cas_mc.Mcsys.t =
  {
    Cas_mc.Mcsys.fingerprint = World.key;
    all_done = World.all_done;
    trans =
      (fun w ->
        List.map
          (function
            | Abort ->
              {
                Cas_mc.Mcsys.tid = w.World.cur;
                label = Cas_mc.Mcsys.Ltau;
                fp = Footprint.empty;
                target = Cas_mc.Mcsys.Abort;
              }
            | Next (g, fp, w') ->
              let tid, label =
                match g with
                | World.Gevt e -> (w.World.cur, Cas_mc.Mcsys.Levt e)
                | World.Gtau -> (w.World.cur, Cas_mc.Mcsys.Ltau)
                | World.Gsw -> (w'.World.cur, Cas_mc.Mcsys.Lsw)
              in
              { Cas_mc.Mcsys.tid; label; fp; target = Cas_mc.Mcsys.Next w' })
          (step w));
  }
