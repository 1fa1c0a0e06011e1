(** The naive bounded-exhaustive engine: breadth-first reachability and
    depth-first trace enumeration over every interleaving — unreduced
    search of the same system the DPOR engines reduce. It is the slowest
    engine and the differential-testing oracle for the reduced ones: its
    verdicts define what the DPOR engines must reproduce, and its world
    count bounds theirs. It reads neither thread ids nor footprints, so
    it also explores systems whose keys include the scheduler choice
    ([Cas_conc.Gsem.system]). *)

let now_ns () = Unix.gettimeofday () *. 1e9

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)
(* ------------------------------------------------------------------ *)

(** Breadth-first reachability; [visit] is called once per distinct
    world, with the transitions the search follows out of it. *)
let reachable ?(max_worlds = 200_000) ?recorder (sys : 'w Mcsys.t)
    (initials : 'w list) ~(visit : 'w -> 'w Mcsys.trans list -> unit) :
    Stats.t =
  let t0 = now_ns () in
  let store = Store.create ~capacity:max_worlds () in
  let transitions = ref 0 in
  let abort = ref false in
  let queue = Queue.create () in
  (* the queue carries each world's fingerprint (computed when it was
     admitted to the store) so neither visiting nor edge recording ever
     recomputes one *)
  let admit ?edge w =
    let fp = sys.Mcsys.fingerprint w in
    match Store.add store fp with
    | `New _ ->
      (match (recorder, edge) with
      | None, _ -> ()
      | Some r, None -> Recorder.root r fp
      | Some r, Some (parent, (tr : 'w Mcsys.trans)) ->
        Recorder.record r ~parent
          {
            Recorder.r_tid = tr.Mcsys.tid;
            r_label = tr.Mcsys.label;
            r_fp = tr.Mcsys.fp;
          }
          ~child:fp);
      Queue.add (w, fp) queue
    | `Seen _ | `Full -> ()
  in
  List.iter (fun w -> admit w) initials;
  while not (Queue.is_empty queue) do
    let w, wfp = Queue.pop queue in
    let trans = sys.Mcsys.trans w in
    visit w trans;
    List.iter
      (fun (tr : 'w Mcsys.trans) ->
        incr transitions;
        match tr.Mcsys.target with
        | Mcsys.Abort -> abort := true
        | Mcsys.Next w' -> admit ~edge:(wfp, tr) w')
      trans
  done;
  {
    (Stats.zero ~engine:"naive") with
    Stats.worlds = Store.distinct store;
    transitions = !transitions;
    store_hits = Store.hits store;
    truncated = Store.truncated store;
    abort_reachable = !abort;
    wall_ns = now_ns () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Trace enumeration                                                   *)
(* ------------------------------------------------------------------ *)

(** Enumerate event traces along cycle-free schedule paths (depth-first,
    cutting when a world repeats on the current path — the continuation
    is a divergent schedule — or when budgets are exhausted). *)
let traces ?(max_steps = 4000) ?(max_paths = 200_000) (sys : 'w Mcsys.t)
    (initials : 'w list) : Trace.result * Stats.t =
  let module SSet = Set.Make (String) in
  let t0 = now_ns () in
  let acc = ref Trace.Set.empty in
  let paths = ref 0 in
  let transitions = ref 0 in
  let abort = ref false in
  let complete = ref true in
  let emit tr = acc := Trace.Set.add tr !acc in
  let rec go w on_path events budget =
    if !paths > max_paths then complete := false
    else if budget = 0 then begin
      complete := false;
      emit (List.rev events, Trace.SCut)
    end
    else if sys.Mcsys.all_done w then emit (List.rev events, Trace.SDone)
    else
      let fp = sys.Mcsys.fingerprint w in
      if SSet.mem fp on_path then emit (List.rev events, Trace.SCut)
      else begin
        let succs = sys.Mcsys.trans w in
        if succs = [] then emit (List.rev events, Trace.SCut)
        else
          List.iter
            (fun (tr : 'w Mcsys.trans) ->
              incr paths;
              incr transitions;
              match tr.Mcsys.target with
              | Mcsys.Abort ->
                abort := true;
                emit (List.rev events, Trace.SAbort)
              | Mcsys.Next w' ->
                let events' =
                  match tr.Mcsys.label with
                  | Mcsys.Levt e -> e :: events
                  | Mcsys.Ltau | Mcsys.Lsw -> events
                in
                go w' (SSet.add fp on_path) events' (budget - 1))
            succs
      end
  in
  List.iter (fun w -> go w SSet.empty [] max_steps) initials;
  ( { Trace.traces = !acc; complete = !complete },
    {
      (Stats.zero ~engine:"naive") with
      Stats.worlds = 0;
      transitions = !transitions;
      truncated = not !complete;
      abort_reachable = !abort;
      wall_ns = now_ns () -. t0;
    } )
