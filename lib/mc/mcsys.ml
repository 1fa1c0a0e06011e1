(** The transition-system interface shared by every model-checking engine
    (naive bounded-exhaustive, DPOR, parallel DPOR).

    It extends the classic fingerprint/steps interface with the two pieces
    of information dynamic partial-order reduction needs:

    - the scheduled *thread* of each transition, and
    - its *footprint* δ = (rs, ws), the read/write sets of Fig. 4.

    The paper's central observation (§2.3) is that steps with disjoint
    footprints commute; [dependent] below is exactly that check, extended
    so that externally observable transitions (events and aborts) never
    commute with each other — reordering them would change the trace. *)

open Cas_base

(** Observable label of a transition: silent, an external event, or a
    scheduler artifact (switch). Mirrors the global messages o ::= τ | e |
    sw of Fig. 7. *)
type label = Ltau | Levt of Event.t | Lsw

type 'w target = Next of 'w | Abort

type 'w trans = {
  tid : int;
      (** thread performing the step (the owner of the buffer, for a TSO
          drain) *)
  label : label;
  fp : Footprint.t;
  target : 'w target;
}

(** A system is a world type equipped with canonical fingerprints (the
    key of the state store), a termination predicate, and the enabled
    transitions. For DPOR engines the fingerprint must be
    scheduler-independent: two worlds differing only in which thread the
    scheduler happens to hold must collide. *)
type 'w t = {
  fingerprint : 'w -> string;
  all_done : 'w -> bool;
  trans : 'w -> 'w trans list;
}

(** What a system's [fingerprint] returns: fixed-width hash keys, the
    default, or the full canonical fingerprint strings ([--paranoid-fp]),
    which are collision-free by construction and are what witness
    digests are taken of. Each semantics defines one system per choice
    over the same graph ([Cas_conc.Engine.selection],
    [Cas_tso.Tso.system]), so verdicts and world counts must not depend
    on it. *)
type keys = Hash | Fingerprint

(** Is the transition externally visible? Events obviously; aborts too,
    since an execution's status (done/abort) is part of its trace. *)
let is_obs (t : 'w trans) =
  match t.label with
  | Levt _ -> true
  | Ltau | Lsw -> ( match t.target with Abort -> true | Next _ -> false)

(** The independence oracle, negated: two transitions are dependent when
    they belong to the same thread, their footprints conflict (one's
    write set meets the other's locations — [Footprint.conflict], §5), or
    both are observable. Independent transitions commute: executing them
    in either order reaches the same world with the same trace, which is
    what licenses DPOR's pruning. *)
let dependent (a : 'w trans) (b : 'w trans) =
  a.tid = b.tid || Footprint.conflict a.fp b.fp || (is_obs a && is_obs b)
