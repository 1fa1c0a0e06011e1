(** Capture: turn a negative verdict into a schedule.

    Race capture is [Cas_conc.Race.drf] over the fingerprint-keyed
    selection view with a [Cas_mc.Recorder] attached and, on a racy
    verdict, reconstructs the recorded spanning-tree path to the racy
    world. Deterministically — the racy world is chosen by minimal
    [Cas_conc.Race.witness_key] over every racy world visited, not by
    visit order — so the captured schedule is a function of the program
    and engine, stable across [--jobs].

    Refinement and abort capture search the uniform [Sem.state] view
    directly (depth-first with on-path cycle cutting): a refinement
    failure arrives as an event trace the reference side cannot match
    ([Cas_tso.Objsim.guarantee_report.missing]), and the schedule
    realizing that trace must be rediscovered — trace sets do not retain
    schedules, by design. *)

open Cas_base

type race_capture = {
  rc_report : Cas_conc.Race.drf_report;
  rc_steps : Witness.step list;  (** [] when the program is DRF *)
  rc_verdict : Witness.verdict option;
}

(** Run [Race.drf] with a recorder attached, and reconstruct the
    schedule to the minimal racy world: the captured race is the one
    [casc drf] reports. Witness step digests are [Sem.digest] of the
    recorder's child keys, so capture explores under the full
    fingerprint strings, not the engines' fixed-width hash keys —
    recorded witnesses stay stable across the key representation. *)
let race ?(engine = Cas_mc.Engine.Naive) ?jobs ?max_worlds
    (w0 : Cas_conc.World.t) : race_capture =
  let keys = Cas_mc.Mcsys.Fingerprint in
  let key = (Cas_conc.Engine.selection keys).Cas_mc.Mcsys.fingerprint in
  let recorder = Cas_mc.Recorder.create () in
  let r = Cas_conc.Race.drf ~engine ?jobs ?max_worlds ~keys ~recorder w0 in
  match (r.Cas_conc.Race.witness, r.Cas_conc.Race.witness_world) with
  | Some (t1, _, t2, _), Some w ->
    let steps =
      match Cas_mc.Recorder.path recorder ~target:(key w) with
      | None -> [] (* unreachable: every visited world is recorded *)
      | Some path ->
        List.map
          (fun ((s : Cas_mc.Recorder.step), child_fp) ->
            Sem.step_of_info
              {
                Sem.i_tid = s.Cas_mc.Recorder.r_tid;
                i_event = Sem.event_of_label s.Cas_mc.Recorder.r_label;
                i_fp = s.Cas_mc.Recorder.r_fp;
                i_flush = false;
                i_abort = false;
                i_dst = Sem.digest child_fp;
              })
          path
    in
    {
      rc_report = r;
      rc_steps = steps;
      rc_verdict = Some (Witness.Vrace (t1, t2));
    }
  | _ -> { rc_report = r; rc_steps = []; rc_verdict = None }

(* ------------------------------------------------------------------ *)
(* Schedule search on the uniform view                                 *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

(** Depth-first search for a schedule realizing the completed event
    trace [events] (a refinement counterexample), cutting cycles on the
    current path and bounding the depth. Candidate transitions whose
    emitted events stop being a prefix of the target are pruned, so the
    search visits only schedules compatible with the trace. *)
let schedule_for_events (s0 : Sem.state) ~(events : Event.t list)
    ?(max_steps = 4000) () : Witness.step list option =
  let rec go (s : Sem.state) on_path rev_steps pending depth =
    if s.Sem.s_done then if pending = [] then Some (List.rev rev_steps) else None
    else if depth >= max_steps then None
    else if SSet.mem s.Sem.s_digest on_path then None
    else
      let on_path = SSet.add s.Sem.s_digest on_path in
      List.find_map
        (fun ((i : Sem.info), target) ->
          match target with
          | None -> None (* abort: not this verdict *)
          | Some s' -> (
            match (i.Sem.i_event, pending) with
            | None, _ ->
              go s' on_path (Sem.step_of_info i :: rev_steps) pending
                (depth + 1)
            | Some e, e' :: pending' when Event.equal e e' ->
              go s' on_path (Sem.step_of_info i :: rev_steps) pending'
                (depth + 1)
            | Some _, _ -> None))
        (s.Sem.s_succ ())
  in
  go s0 SSet.empty [] events 0

(** Depth-first search for a schedule reaching an abort transition. *)
let schedule_to_abort (s0 : Sem.state) ?(max_steps = 4000) () :
    Witness.step list option =
  let rec go (s : Sem.state) on_path rev_steps depth =
    if s.Sem.s_done || depth >= max_steps || SSet.mem s.Sem.s_digest on_path
    then None
    else
      let succs = s.Sem.s_succ () in
      match
        List.find_opt (fun ((i : Sem.info), _) -> i.Sem.i_abort) succs
      with
      | Some (i, _) -> Some (List.rev (Sem.step_of_info i :: rev_steps))
      | None ->
        let on_path = SSet.add s.Sem.s_digest on_path in
        List.find_map
          (fun ((i : Sem.info), target) ->
            match target with
            | None -> None
            | Some s' ->
              go s' on_path (Sem.step_of_info i :: rev_steps) (depth + 1))
          succs
  in
  go s0 SSet.empty [] 0
