(** The naive bounded-exhaustive engine: breadth-first reachability and
    depth-first trace enumeration over every interleaving — unreduced
    search of the same system the DPOR engines reduce. It is the
    differential-testing oracle for the reduced ones: its verdicts define
    what the DPOR engines must reproduce, and its reachable world count
    bounds theirs. It reads neither thread ids nor footprints, so it also
    explores systems whose keys include the scheduler choice
    ([Cas_conc.Gsem.system]).

    Each search steps each distinct world once, in a per-call [Store].
    Trace enumeration still walks every cycle-free schedule path, but a
    path that revisits a world follows the edges its slot keeps instead
    of stepping the world again, and the traces collect in an
    event-prefix trie ([Trace.Trie]) keyed once per distinct trace. So
    although naive reachability visits more worlds than DPOR, naive
    trace enumeration is the faster of the two wherever the threads'
    interleavings reconverge on shared worlds. *)

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

(* A world the trace enumeration met, in its slot of the per-call store:
   done (the world itself is never kept), not yet stepped (kept until it
   is), or stepped, its transitions turned into edges to their targets'
   nodes — silent, or emitting the transition's event. [on_path] marks
   the nodes of the current schedule path. *)
type 'w node = { mutable state : 'w state; mutable on_path : bool }
and 'w state = Finished | Fresh of 'w | Stepped of 'w edge list

and 'w edge =
  | Abort
  | Silent of 'w node
  | Emit of Cas_base.Event.t * 'w node

(** Enumerate event traces along cycle-free schedule paths (depth-first,
    cutting when a world repeats on the current path — the continuation
    is a divergent schedule — or when budgets are exhausted).

    The path tree is walked as if every visit stepped its world afresh,
    but each distinct world is done-checked, keyed and stepped once: its
    slot keeps the transitions as edges to the successors' slots, and
    fingerprint-equal worlds have equal transitions, done flags and
    labels. Traces collect in a [Trace.Trie], keyed once each at the
    end. [worlds] counts the worlds stepped (one [trans] call each),
    [store_hits] the visits that followed a stepped world's edges
    again. *)
let traces ?(max_steps = 4000) ?(max_paths = 200_000) (sys : 'w Mcsys.t)
    (initials : 'w list) : Trace.result * Stats.t =
  let t0 = now_ns () in
  let store : 'w node Store.t = Store.create ~capacity:max_int () in
  let root = Trace.Trie.create () in
  (* every edge taken counts against the path budget *)
  let transitions = ref 0 in
  let stepped = ref 0 in
  let reused = ref 0 in
  let abort = ref false in
  let complete = ref true in
  let node w =
    match Store.add store (sys.Mcsys.fingerprint w) with
    | `Seen slot -> Option.get (Store.get slot)
    | `New slot ->
      let n =
        {
          state = (if sys.Mcsys.all_done w then Finished else Fresh w);
          on_path = false;
        }
      in
      Store.fill slot n;
      n
    | `Full -> assert false (* the store has no capacity cap *)
  in
  let edge (tr : 'w Mcsys.trans) =
    match tr.Mcsys.target with
    | Mcsys.Abort -> Abort
    | Mcsys.Next w' -> (
      match tr.Mcsys.label with
      | Mcsys.Levt e -> Emit (e, node w')
      | Mcsys.Ltau | Mcsys.Lsw -> Silent (node w'))
  in
  let rec go n cell budget =
    if !transitions > max_paths then complete := false
    else if budget = 0 then begin
      complete := false;
      Trace.Trie.mark cell Trace.SCut
    end
    else
      match n.state with
      | Finished -> Trace.Trie.mark cell Trace.SDone
      | _ when n.on_path -> Trace.Trie.mark cell Trace.SCut
      | Fresh w ->
        incr stepped;
        let edges = List.map edge (sys.Mcsys.trans w) in
        n.state <- Stepped edges;
        follow n cell budget edges
      | Stepped edges ->
        incr reused;
        follow n cell budget edges
  and follow n cell budget = function
    | [] -> Trace.Trie.mark cell Trace.SCut
    | edges ->
      n.on_path <- true;
      List.iter
        (fun e ->
          incr transitions;
          match e with
          | Abort ->
            abort := true;
            Trace.Trie.mark cell Trace.SAbort
          | Silent n' -> go n' cell (budget - 1)
          | Emit (ev, n') -> go n' (Trace.Trie.child cell ev) (budget - 1))
        edges;
      n.on_path <- false
  in
  List.iter (fun w -> go (node w) root max_steps) initials;
  ( { Trace.traces = Trace.Trie.to_set root; complete = !complete },
    {
      (Stats.zero ~engine:"naive") with
      Stats.worlds = !stepped;
      transitions = !transitions;
      store_hits = !reused;
      truncated = not !complete;
      abort_reachable = !abort;
      wall_ns = now_ns () -. t0;
    } )
