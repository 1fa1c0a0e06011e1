(** The race predictor and data-race-freedom (Fig. 9, §5).

    [predict w t] computes the instrumented footprints (δ, d) the rules
    Predict-0 and Predict-1 derive for thread [t] in world [w]:
    - Predict-0: the footprint of any immediate next step of a thread that
      is outside atomic blocks, paired with bit 0;
    - Predict-1: when the next step enters an atomic block, the
      accumulated footprint of the silent run of the whole block, paired
      with bit 1. (Conflict is monotone in the footprint, so checking the
      maximal accumulated footprint covers every prefix the paper's τ*
      allows.)

    A world predicts a race when two distinct threads have conflicting
    instrumented footprints ((δ1,d1) ⌢ (δ2,d2), §5). DRF(P) then means no
    reachable world predicts a race. *)

open Cas_base

type prediction = Footprint.t * bool

(** Accumulated footprint of the atomic block entered by the given
    successor world (thread [tid] just performed EntAtom). Shared with
    the selection view of [Engine], which uses it to summarize whole
    blocks on their entry transitions. *)
let atomic_block_fp = Engine.atomic_block_fp

let predict (w : World.t) (tid : int) : prediction list =
  if World.dbit w tid then []
  else
    (* footprint-only stepping: the predictor never needs the successor
       worlds except through atomic entry, and it probes every live
       thread at every visited world *)
    List.filter_map
      (function
        | World.PEnter (fp, w') ->
          Some
            (Footprint.union fp (atomic_block_fp w' tid ~bound:1000), true)
        | World.PNext fp ->
          if Footprint.is_empty fp then None else Some (fp, false))
      (World.local_preds w tid)

(** Region-based prediction for the non-preemptive setting (§5, after
    Xiao et al.'s NP race notion): under non-preemptive scheduling a
    thread executes a whole *region* — the silent run up to its next
    switch point — without interruption, so NPDRF must compare the
    accumulated footprints of regions, not of single steps (single-step
    prediction would miss every race hidden inside a region, and
    DRF ⇔ NPDRF would fail). If the region ends by entering an atomic
    block, the block's own footprint is predicted separately with bit 1,
    as in Predict-1. *)
let predict_np (w : World.t) (tid : int) : prediction list =
  if World.dbit w tid then []
  else
    let preds = ref [] in
    let rec run w acc bound =
      if bound = 0 then preds := (acc, false) :: !preds
      else
        let succs = World.local_steps w tid in
        if succs = [] then preds := (acc, false) :: !preds
        else
          List.iter
            (function
              | World.LAbort -> preds := (acc, false) :: !preds
              | World.LNext (Msg.EntAtom, fp, w') ->
                let acc = Footprint.union acc fp in
                preds := (acc, false) :: !preds;
                preds :=
                  ( Footprint.union acc
                      (atomic_block_fp w' tid ~bound:1000),
                    true )
                  :: !preds
              | World.LNext (msg, fp, w') ->
                let acc = Footprint.union acc fp in
                if Msg.is_switch_point msg then preds := (acc, false) :: !preds
                else run w' acc (bound - 1))
            succs
    in
    run w Footprint.empty 1000;
    !preds

(** Predictions of thread [tid] read off one of its transitions in the
    selection view ([Engine.selection_system]), for a thread outside
    atomic blocks: an abort predicts nothing (as [World.local_preds]
    drops abort-bound steps); a step into an atomic block — the only
    step that sets the thread's bit — already carries the block's
    accumulated footprint, which is Predict-1; any other non-empty
    footprint is Predict-0. *)
let prediction_of_trans tid (t : World.t Cas_mc.Mcsys.trans) :
    prediction option =
  match t.Cas_mc.Mcsys.target with
  | Cas_mc.Mcsys.Abort -> None
  | Cas_mc.Mcsys.Next w' ->
    if World.dbit w' tid then Some (t.Cas_mc.Mcsys.fp, true)
    else if Footprint.is_empty t.Cas_mc.Mcsys.fp then None
    else Some (t.Cas_mc.Mcsys.fp, false)

(** [predict] of every live thread of [w], in [World.live_tids] order,
    read off [trans]: the transitions the selection view takes out of
    [w], which list each schedulable thread's local steps in ascending
    thread order. When no thread holds the atomic bit every live thread
    is schedulable, so this equals [predict] thread by thread without
    stepping anything; otherwise only the holder is schedulable and the
    others' steps are not in [trans], so it falls back to [predict]. *)
let predictions_of_trans (w : World.t)
    (trans : World.t Cas_mc.Mcsys.trans list) : (int * prediction list) list
    =
  let live = World.live_tids w in
  if List.exists (World.dbit w) live then
    List.map (fun t -> (t, predict w t)) live
  else
    let rec per_thread tids trans =
      match tids with
      | [] -> []
      | tid :: rest ->
        let rec take acc = function
          | (t : World.t Cas_mc.Mcsys.trans) :: more
            when t.Cas_mc.Mcsys.tid = tid ->
            take
              (match prediction_of_trans tid t with
              | Some p -> p :: acc
              | None -> acc)
              more
          | more -> (List.rev acc, more)
        in
        let ps, more = take [] trans in
        (tid, ps) :: per_thread rest more
    in
    per_thread live trans

(** The first conflicting pair of two threads' predictions, in
    prediction order: the instrumented conflict (δ1,d1) ⌢ (δ2,d2). *)
let conflicting (p1 : prediction list) (p2 : prediction list) :
    (prediction * prediction) option =
  List.find_map
    (fun pr1 ->
      List.find_map
        (fun pr2 ->
          if Footprint.conflict_bits pr1 pr2 then Some (pr1, pr2) else None)
        p2)
    p1

(** The first conflicting pair of predictions of two distinct threads,
    in thread order, then prediction order. *)
let first_race (preds : (int * prediction list) list) :
    (int * prediction * int * prediction) option =
  let rec pairs = function
    | [] -> None
    | (t1, p1) :: rest ->
      let hit =
        List.find_map
          (fun (t2, p2) ->
            match conflicting p1 p2 with
            | Some (pr1, pr2) -> Some (t1, pr1, t2, pr2)
            | None -> None)
          rest
      in
      (match hit with Some _ -> hit | None -> pairs rest)
  in
  pairs preds

(** Does world [w] predict a data race (the Race rule of Fig. 9)? Returns
    the witnessing threads and footprints if so. [predictor] selects
    single-step prediction (preemptive DRF) or region prediction
    (NPDRF). *)
let race_witness ?(predictor = predict) (w : World.t) :
    (int * prediction * int * prediction) option =
  first_race (List.map (fun t -> (t, predictor w t)) (World.live_tids w))

let races (w : World.t) = Option.is_some (race_witness w)

(** Does [w] predict a race between threads [t1] and [t2]? *)
let race_between (w : World.t) t1 t2 =
  t1 <> t2 && Option.is_some (conflicting (predict w t1) (predict w t2))

type drf_report = {
  drf : bool;
  witness : (int * prediction * int * prediction) option;
  witness_world : World.t option;
      (** the racy world the witness was predicted at, for diagnostics *)
  stats : Explore.stats;
  engine_stats : Cas_mc.Stats.t;  (** the engine's full accounting *)
}

(** Total selection key for a race witness: the racy world's
    scheduler-independent fingerprint, then the rendered witness tuple.
    The engines visit worlds in an order that depends on the engine and,
    under [dpor-par], on domain interleaving — but the *set* of visited
    worlds is the same, so picking the minimal key makes the reported
    witness a function of the program alone, stable across engines and
    [--jobs] values. *)
let witness_key (w : World.t) ((t1, (d1, b1), t2, (d2, b2)) : int * prediction * int * prediction) : string =
  Fmt.str "%s|%d %a %b|%d %a %b" (World.fingerprint_nocur w) t1 Footprint.pp
    d1 b1 t2 Footprint.pp d2 b2

let pp_drf_report ppf r =
  match r.witness with
  | None -> Fmt.pf ppf "DRF (%a)" Explore.pp_stats r.stats
  | Some (t1, (d1, b1), t2, (d2, b2)) ->
    Fmt.pf ppf "RACE between T%d %a[%b] and T%d %a[%b] (%a)" t1 Footprint.pp d1
      b1 t2 Footprint.pp d2 b2 Explore.pp_stats r.stats

(** The race predictor as a visitor of the selection view's
    exploration ([Cas_mc.Engine.reachable_trans] over
    [Engine.selection], under either key): it reads each
    visited world's predictions off the transitions the engine hands
    it, and keeps the candidate with the smallest [witness_key] over
    *all* racy worlds, not the first one visited — under [dpor-par]
    the visit order depends on domain scheduling, and first-hit would
    make the reported witness (and everything downstream: capture,
    replay, shrink) flap across [--jobs] values. The second component
    turns the exploration's statistics into the report. *)
let witness_visitor () :
    (World.t -> World.t Cas_mc.Mcsys.trans list -> unit)
    * (Cas_mc.Stats.t -> drf_report) =
  let best = ref None in
  let visit w trans =
    match first_race (predictions_of_trans w trans) with
    | None -> ()
    | Some wt -> (
      let key = witness_key w wt in
      match !best with
      | Some (key', _, _) when key' <= key -> ()
      | _ -> best := Some (key, wt, w))
  in
  let report st =
    {
      drf = !best = None;
      witness = Option.map (fun (_, wt, _) -> wt) !best;
      witness_world = Option.map (fun (_, _, w) -> w) !best;
      stats = Explore.stats_of_mc st;
      engine_stats = st;
    }
  in
  (visit, report)

(** DRF(P) with a selectable exploration engine: the race predictor over
    the thread-selection view, which every engine explores (the
    predictor reads only thread states and memory — never [cur]).
    [keys] chooses the view's state keys ([Hash] by default); a
    [recorder] keeps the spanning tree of the exploration, keyed the
    same way. *)
let drf ?max_worlds ?engine ?jobs ?(keys = Cas_mc.Mcsys.Hash) ?recorder w0 =
  let visit, report = witness_visitor () in
  report
    (Cas_mc.Engine.reachable_trans ?engine ?jobs ?max_worlds ?recorder
       (Engine.selection keys) [ w0 ] ~visit)

(** NPDRF(P) (§5): region prediction over the worlds of the
    non-preemptive semantics, reporting the first racy world reached. *)
let npdrf ?max_worlds w0 =
  let witness = ref None in
  let st =
    Engine.np_explore ?max_worlds w0 ~visit:(fun w ->
        if !witness = None then
          Option.iter
            (fun wt -> witness := Some (wt, w))
            (race_witness ~predictor:predict_np w))
  in
  {
    drf = !witness = None;
    witness = Option.map fst !witness;
    witness_world = Option.map snd !witness;
    stats = Explore.stats_of_mc st;
    engine_stats = st;
  }
