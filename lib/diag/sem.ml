(** A uniform, replayable view of the global semantics: one constructor
    ([make]) unfolds a fingerprint-keyed system into a first-order
    [state] type, and both the SC thread-selection view ([sc]) and the
    x86-TSO machine ([tso]) are instances of it, so replay, shrinking,
    and schedule search are written once and work on either.

    A [state] exposes exactly what the diagnosis algorithms need: the
    enabled transitions with their recorded-step view ([info]: thread,
    event, footprint, flush flag, target digest), terminality, and the
    race predicate restricted to a thread pair. World types stay hidden
    behind closures — [Cas_diag] never matches on a world. *)

open Cas_base

(** The witness-step view of one enabled transition. *)
type info = {
  i_tid : int;
  i_event : Event.t option;
  i_fp : Footprint.t;
  i_flush : bool;  (** a TSO buffer drain of thread [i_tid] *)
  i_abort : bool;  (** the transition aborts (it has no target state) *)
  i_dst : string;  (** digest of the target world fingerprint *)
}

type state = {
  s_done : bool;
  s_digest : string;  (** digest of this world's fingerprint *)
  s_race : int -> int -> bool;
      (** does this world predict a race between the given threads? *)
  s_succ : unit -> (info * state option) list;
      (** enabled transitions; [None] target iff [i_abort] *)
}

let digest fp = Digest.to_hex (Digest.string fp)

let info_of_step (s : Witness.step) : info =
  {
    i_tid = s.Witness.s_tid;
    i_event = s.Witness.s_event;
    i_fp =
      Footprint.union
        (Footprint.reads s.Witness.s_reads)
        (Footprint.writes s.Witness.s_writes);
    i_flush = s.Witness.s_flush;
    i_abort = false;
    i_dst = s.Witness.s_dst;
  }

let step_of_info (i : info) : Witness.step =
  {
    Witness.s_tid = i.i_tid;
    s_event = i.i_event;
    s_reads = Addr.Set.elements (Footprint.rs_set i.i_fp);
    s_writes = Addr.Set.elements (Footprint.ws_set i.i_fp);
    s_flush = i.i_flush;
    s_dst = i.i_dst;
  }

let event_of_label = function
  | Cas_mc.Mcsys.Levt e -> Some e
  | Cas_mc.Mcsys.Ltau | Cas_mc.Mcsys.Lsw -> None

(** The uniform view of [sys] from [w0]. [sys] must be keyed by full
    fingerprint strings ([Cas_mc.Mcsys.Fingerprint]): state and target
    digests are [digest] of its keys, so witnesses are byte-stable
    across the engines' hash keys. [race w t1 t2] is the semantics' race
    predicate on a thread pair, and [drain w w' t] tells whether the
    step [w] → [w'] of thread [t] drained its store buffer. *)
let make (sys : 'w Cas_mc.Mcsys.t) ~(race : 'w -> int -> int -> bool)
    ~(drain : 'w -> 'w -> int -> bool) (w0 : 'w) : state =
  let rec unfold w =
    {
      s_done = sys.Cas_mc.Mcsys.all_done w;
      s_digest = digest (sys.Cas_mc.Mcsys.fingerprint w);
      s_race = race w;
      s_succ =
        (fun () ->
          List.map
            (fun (tr : 'w Cas_mc.Mcsys.trans) ->
              match tr.Cas_mc.Mcsys.target with
              | Cas_mc.Mcsys.Abort ->
                ( {
                    i_tid = tr.Cas_mc.Mcsys.tid;
                    i_event = None;
                    i_fp = tr.Cas_mc.Mcsys.fp;
                    i_flush = false;
                    i_abort = true;
                    i_dst = "";
                  },
                  None )
              | Cas_mc.Mcsys.Next w' ->
                ( {
                    i_tid = tr.Cas_mc.Mcsys.tid;
                    i_event = event_of_label tr.Cas_mc.Mcsys.label;
                    i_fp = tr.Cas_mc.Mcsys.fp;
                    i_flush = drain w w' tr.Cas_mc.Mcsys.tid;
                    i_abort = false;
                    i_dst = digest (sys.Cas_mc.Mcsys.fingerprint w');
                  },
                  Some (unfold w') ))
            (sys.Cas_mc.Mcsys.trans w));
    }
  in
  unfold w0

let never _ _ _ = false

(** SC: the preemptive thread-selection view, with the race predictor's
    pairwise check. It has no store buffers. *)
let sc =
  make
    (Cas_conc.Engine.selection Cas_mc.Mcsys.Fingerprint)
    ~race:Cas_conc.Race.race_between ~drain:never

(** x86-TSO: the store-buffer machine. Its witnesses record refinement
    failures and aborts, never races. *)
let tso =
  make
    (Cas_tso.Tso.system Cas_mc.Mcsys.Fingerprint)
    ~race:never ~drain:Cas_tso.Tso.is_drain
