(** Dynamic partial-order reduction: *source-DPOR with wakeup
    sequences* (after Abdulla–Aronis–Jonsson–Sagonas, POPL'14), using
    footprint disjointness as the independence oracle, scheduled over
    the work-stealing frontier ([Frontier.run_stealing]).

    The engine explores a tree of schedules. Each tree node is a
    {!frame}: a world plus the schedule that reached it. At a fresh
    frame a *single* thread is scheduled; additional branches appear
    only by *race reversal* — when a pending thread [p]'s next step is
    found dependent with the most recent executed transition [e] of
    another thread, the engine computes the wakeup sequence

      [v = notdep(e, E) · p]

    (the steps executed after [e] that do not happen-after [e],
    followed by [p]'s step — i.e. "the same execution with the race
    reversed") and inserts [v] at the frame [e] was taken from, unless
    some *weak initial* of [v] is already a branch or a sleeping thread
    there — the source-set condition, which is exactly what makes the
    insertion redundant. An inserted branch carries [v] as its *guide*:
    descent replays the guide's threads first, so the branch is steered
    straight to the reversed race instead of wandering into schedules a
    sleep set would later block. Sleep sets still carry explored
    siblings forward ([survives_sleep]), but because insertion is
    source-set-filtered, branches are (on the corpus, gated in
    test_mc) never spawned into a sleep-set wall: the
    [sleep_prunings] counter — pure waste in the old persistent-set
    engine — is the optimality meter and should read 0.

    Parallelism: every inserted branch is a task for the work-stealing
    frontier. A task descends depth-first on its own domain and pushes
    the branches it creates onto its own deque; dry domains steal
    oldest-first (nearest the root — the largest subtrees). Frames are
    shared across domains, each protected by its world's stripe of the
    run's locks. Per-domain counters are folded at join; verdict and
    witness selection stay deterministic via the min-[witness_key]
    reduction in [Cas_conc.Race]. The DRF search's verdict, witness and
    world count have matched sequential dpor's on every program tested
    (the corpus, CI and casbench's drf pools), and trace enumeration
    finds the same traces wherever sequential dpor completes. Its world
    count is not steal-independent: a generated TSO client visits 179
    worlds in some runs and 182 in others (ROADMAP.md, the dpor-par
    item).

    Each world is keyed, looked up and stepped once. The state table
    ([Store]) admits a world the first time some schedule reaches it,
    and its slot holds the world's {!node}: key, done flag, an id
    [Store.add] assigned at admission, and the transition groups,
    computed then and handed to [on_world] so the visitor never steps
    the world again. Each transition is an {!edge} whose target node is
    resolved the first time any frame executes it; a later visit
    through the edge reads the node (a store hit) without computing a
    fingerprint or probing the table. Frame locks are striped by node
    id, and traces collect in an event-prefix trie ([Trace.Trie]).

    A world is visited once per schedule prefix that reaches it, so a
    visit allocates nothing in proportion to its path: a frame, a path
    cell and its first branch's cell, and a summary list (a cell per
    thread) when a path summary widens. The
    cycle check reads per-worker marks indexed by node id
    ([w_marks]): a frame marks its node around its first branch, and a
    spawned branch marks its frame's path around its run. Each edge and
    each group carries its {!step}, the dependence summary built when
    the world is admitted, which sleep sets, branches, wakeup sequences
    and path summaries share. Each frame carries per-thread summaries
    of its path ([f_hist]), so race reversal reads the path only when
    some other thread's history conflicts with the pending step; it
    then recurses back to the racing transition and classifies the
    steps after it on the way out, into per-worker buffers, stopping
    as soon as the insertion is known to be void ([racing]).

    Soundness precondition (see DESIGN.md "Exploration engines"): the
    reduction preserves the set of event traces, abort reachability,
    and race-predictor verdicts. State-space *cycles* (spin loops) are
    cut when a world repeats on the current schedule path, exactly as
    the naive trace enumerator does, and every cut re-enables the
    still-pending threads at the most recent frame that could have
    scheduled them ([rescue]) so executions stay maximal; all verdicts
    are sound-up-to-bound, and the differential tests in
    [test/test_mc.ml] plus the fuzz oracle check engine agreement. *)

open Cas_base
module ISet = Set.Make (Int)

type cfg = { max_worlds : int; max_depth : int; max_paths : int }

let default_cfg =
  { max_worlds = 200_000; max_depth = 4000; max_paths = 200_000 }

(* ------------------------------------------------------------------ *)
(* Steps, nodes, per-thread transition groups and edges                *)
(* ------------------------------------------------------------------ *)

(** The thread-granular dependence summary of a transition, or of the
    union of several: its thread, footprint and observability. Each
    edge and each group carries its own, built once when its world is
    admitted; wakeup sequences, sleep sets, spawned branches and path
    summaries are made of them, so none of those builds a summary per
    visit. *)
type step = { v_tid : int; v_fp : Footprint.t; v_obs : bool }

(** Are two steps dependent: the same thread, conflicting footprints, or
    both observable? Symmetric. *)
let vdep a b =
  a.v_tid = b.v_tid
  || Footprint.conflict a.v_fp b.v_fp
  || (a.v_obs && b.v_obs)

(** What the engine knows of a keyed world, built once per admitted
    world and kept in its table slot: its key, whether every thread is
    done, its transitions grouped by thread, and the threads those
    groups enable. [n_id] is the id [Store.add] assigned the world at
    admission, or -1 for a world the full table refused (whose node is
    built again at every visit). *)
type 'w node = {
  n_id : int;
  n_key : string;
  n_done : bool;
  n_groups : 'w group list;
  n_enabled : ISet.t;
}

(** All transitions of one thread at one world, with the union of their
    steps, used for dependence at thread granularity (a thread's
    transitions from a given world are mutually dependent — they are
    alternative next steps of the same sequential core). *)
and 'w group = { g_tid : int; g_step : step; g_edges : 'w edge list }

(** One transition: its step, label and where it leads. [e_target]
    starts as the target world and becomes the target's node the first
    time a frame executes the edge, unless the full table refused the
    target. Under [jobs > 1] two domains may resolve an edge at once:
    both find the same node (or equal ones with the same id), so either
    write will do. *)
and 'w edge = {
  e_step : step;
  e_label : Mcsys.label;
  mutable e_target : 'w target;
}

and 'w target = Abort | World of 'w | Node of 'w node

let edge_of (t : 'w Mcsys.trans) =
  {
    e_step = { v_tid = t.Mcsys.tid; v_fp = t.Mcsys.fp; v_obs = Mcsys.is_obs t };
    e_label = t.Mcsys.label;
    e_target =
      (match t.Mcsys.target with
      | Mcsys.Abort -> Abort
      | Mcsys.Next w -> World w);
  }

(** Groups in order of each thread's first transition, edges in their
    transitions' order within a group. Systems list a thread's
    transitions mostly contiguously, so one partition per thread is
    linear in practice and allocates no table. *)
let rec group_by_tid (edges : 'w edge list) : 'w group list =
  match edges with
  | [] -> []
  | e :: _ ->
    let tid = e.e_step.v_tid in
    let es, rest = List.partition (fun u -> u.e_step.v_tid = tid) edges in
    {
      g_tid = tid;
      g_step =
        {
          v_tid = tid;
          v_fp =
            List.fold_left
              (fun acc u -> Footprint.union acc u.e_step.v_fp)
              Footprint.empty es;
          v_obs = List.exists (fun u -> u.e_step.v_obs) es;
        };
      g_edges = es;
    }
    :: group_by_tid rest

let node_of ~id ~key ~done_ (trans : 'w Mcsys.trans list) =
  let groups = group_by_tid (List.map edge_of trans) in
  {
    n_id = id;
    n_key = key;
    n_done = done_;
    n_groups = groups;
    n_enabled =
      List.fold_left (fun s g -> ISet.add g.g_tid s) ISet.empty groups;
  }

(** The group of thread [tid], which [n_enabled] holds. *)
let rec group_of tid = function
  | [] -> invalid_arg "Dpor.group_of: thread not enabled"
  | g :: rest -> if g.g_tid = tid then g else group_of tid rest

(* ------------------------------------------------------------------ *)
(* Sleep sets                                                          *)
(* ------------------------------------------------------------------ *)

(* A sleep set is a list of the steps of threads explored from an
   earlier sibling branch, skipped here unless a dependent transition
   wakes them (removes them). *)

(** Does a step of thread [tid] occur in [steps], a sleep set or a
    frame's branches? *)
let rec mem_tid tid = function
  | [] -> false
  | s :: rest -> s.v_tid = tid || mem_tid tid rest

(** Does every sleeping step stay asleep across step [e]? *)
let rec all_survive e = function
  | [] -> true
  | s :: rest -> (not (vdep s e)) && all_survive e rest

let rec survivors e = function
  | [] -> []
  | s :: rest -> if vdep s e then survivors e rest else s :: survivors e rest

(* ------------------------------------------------------------------ *)
(* Path summaries                                                      *)
(* ------------------------------------------------------------------ *)

(** A frame's path summaries: for each thread that has executed, one
    [step] whose footprint and observability are the union of that
    thread's transitions on the path. Conflict distributes over union,
    so a pending group depends on some transition of thread [h] on the
    path iff it depends on [h]'s summary: race reversal consults the
    summaries first and scans the path only when one of them says a
    dependent transition exists. [extend_hist hs e] is [hs] after edge
    [e]: [hs] itself (frames share it) when [e]'s thread summary
    already covers [e]. *)
let rec extend_from hs s = function
  | [] -> if Footprint.is_empty s.v_fp && not s.v_obs then hs else s :: hs
  | h :: rest ->
    if h.v_tid <> s.v_tid then extend_from hs s rest
    else if Footprint.subset s.v_fp h.v_fp && (h.v_obs || not s.v_obs) then hs
    else widen s hs

and widen s = function
  | [] -> []
  | h :: rest ->
    if h.v_tid = s.v_tid then
      {
        h with
        v_fp = Footprint.union h.v_fp s.v_fp;
        v_obs = h.v_obs || s.v_obs;
      }
      :: rest
    else h :: widen s rest

let extend_hist hs (e : 'w edge) = extend_from hs e.e_step hs

(** Does some other thread's history hold a transition [g]'s next step
    depends on? Exactly when [racing] would find one on the path. *)
let rec history_conflicts (g : 'w group) = function
  | [] -> false
  | h :: rest ->
    (h.v_tid <> g.g_tid
    && (Footprint.conflict g.g_step.v_fp h.v_fp || (g.g_step.v_obs && h.v_obs))
    )
    || history_conflicts g rest

(* ------------------------------------------------------------------ *)
(* Frames: shared exploration-tree nodes                               *)
(* ------------------------------------------------------------------ *)

(** One node of the exploration tree: a visit of world node [f_node].
    Immutable but for [f_children], which grows under [f_lock] while
    descendants — possibly running on other domains — discover races
    that insert wakeup sequences here. *)
type 'w frame = {
  f_node : 'w node;
  f_path : ('w frame * 'w edge) list;
      (** schedule to here, newest first: each element pairs an executed
          edge with the frame it was taken {e from} (pre(S, i)) *)
  f_hist : step list;  (** per-thread summaries of [f_path] *)
  f_cell : Trace.Trie.cell;
      (** the trie cell of the event trace to here; the root when
          traces are not kept *)
  f_refused : string list;
      (** keys of the worlds on the path the full table refused,
          including this one; [] unless the table filled up *)
  f_depth : int;
  f_sleep : step list;  (** sleep set this frame was entered with *)
  f_lock : Mutex.t;  (** [f_node]'s stripe of the run's locks *)
  mutable f_children : step list;
      (** the group step of each spawned branch's first thread, newest
          first: the source set, one thread per insertion, and the
          sleep summaries younger siblings inherit; under [f_lock] *)
}

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

(** Per-worker state. The counters are folded into [Stats] at join:
    stealing domains must not fight over counter cachelines on the hot
    path. Only the path budget needs cross-domain visibility, so it
    alone is flushed to a shared atomic, in batches. A worker runs one
    task at a time, so the rest is scratch for that task: the on-path
    marks, and the wakeup sequence and happens-after set of the race
    being reversed. *)
type wstats = {
  mutable w_trans : int;
  mutable w_pend : int;  (** paths counted but not yet flushed *)
  mutable w_sleeps : int;
  mutable w_backs : int;
  mutable w_hits : int;  (** visits through a resolved edge *)
  mutable w_marks : Bytes.t;
      (** by node id, nonzero for the admitted worlds on the schedule
          path of the frame the running task branches from; grown on
          demand *)
  w_v : steps;  (** the wakeup sequence *)
  w_after : steps;
      (** the steps that happen after the race's earlier transition *)
}

(** A stack of steps, reused in place: its first [n] cells. *)
and steps = { mutable a : step array; mutable n : int }

let no_step = { v_tid = -1; v_fp = Footprint.empty; v_obs = false }
let steps () = { a = Array.make 16 no_step; n = 0 }

let push b s =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) no_step in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  Array.unsafe_set b.a b.n s;
  b.n <- b.n + 1

let wstats () =
  {
    w_trans = 0;
    w_pend = 0;
    w_sleeps = 0;
    w_backs = 0;
    w_hits = 0;
    w_marks = Bytes.make 256 '\000';
    w_v = steps ();
    w_after = steps ();
  }

let flush_batch = 256

type 'w state = {
  sys : 'w Mcsys.t;
  cfg : cfg;
  store : 'w node Store.t;
      (** each admitted world's slot holds its node: DPOR revisits a
          state along many schedule prefixes (the tree is sized by
          paths, not states), and a node is immutable once built but
          for its edges' resolution, so every revisit — and every cut
          rescue — reads it instead of re-running the semantics. A
          revisit through a resolved edge does not reach the table at
          all; [w_hits] counts it as the hit it would have been *)
  locks : Mutex.t array;
      (** frame locks, indexed by node id modulo the length, a power of
          two: one lock when sequential *)
  recorder : Recorder.t option;
  on_world : 'w -> 'w Mcsys.trans list -> unit;
  collect : bool;  (** keep event traces *)
  root : Trace.Trie.cell;  (** the empty event prefix *)
  child : Trace.Trie.cell -> Event.t -> Trace.Trie.cell;
  mark : Trace.Trie.cell -> Trace.status -> unit;
      (** the trie's operations, under a lock when parallel *)
  paths : int Atomic.t;  (** flushed path count (budget arbiter) *)
  abort : bool Atomic.t;
  incomplete : bool Atomic.t;
  wstats : wstats array;  (** indexed by [Frontier.id] *)
}

let wstats_of rs wc = rs.wstats.(Frontier.id wc)

let bump_path rs (ws : wstats) =
  ws.w_pend <- ws.w_pend + 1;
  if ws.w_pend >= flush_batch then begin
    ignore (Atomic.fetch_and_add rs.paths ws.w_pend : int);
    ws.w_pend <- 0
  end

let over_budget rs (ws : wstats) =
  if Atomic.get rs.paths + ws.w_pend > rs.cfg.max_paths then begin
    Atomic.set rs.incomplete true;
    true
  end
  else false

(** Record an execution ending in [status] after the event trace of
    trie cell [cell] — when traces are kept. *)
let emit rs cell status = if rs.collect then rs.mark cell status

(** Key world [w] and find its node. A world met for the first time is
    admitted: its spanning-tree edge from [parent] (the frame it was
    stepped from and the executed edge, [None] for an initial world) is
    recorded — against the parent's key, so recording computes no
    fingerprint — and its transitions are computed, kept in its node and
    handed to the visitor. A world the full table refuses gets a node
    with id -1, which no edge keeps. *)
let admit rs parent w =
  let key = rs.sys.Mcsys.fingerprint w in
  let done_ = rs.sys.Mcsys.all_done w in
  let node id =
    let trans = if done_ then [] else rs.sys.Mcsys.trans w in
    (node_of ~id ~key ~done_ trans, trans)
  in
  match Store.add rs.store key with
  | `New slot ->
    (* the parent is already recorded: it was admitted, and so
       recorded, before any task could descend through it *)
    (match (rs.recorder, parent) with
    | Some r, Some (f, e) ->
      Recorder.record r ~parent:f.f_node.n_key
        {
          Recorder.r_tid = e.e_step.v_tid;
          r_label = e.e_label;
          r_fp = e.e_step.v_fp;
        }
        ~child:key
    | _ -> ());
    let n, trans = node (Store.id slot) in
    Store.fill slot n;
    rs.on_world w trans;
    n
  | `Seen slot -> (
    match Store.get slot with
    | Some n -> n
    | None ->
      (* admitted by a racing domain that has not filled the slot yet:
         the same node, built here *)
      fst (node (Store.id slot)))
  | `Full ->
    Atomic.set rs.incomplete true;
    fst (node (-1))

(** The node edge [e] of [frame] leads to: the resolved target, or the
    target world admitted and, unless refused, kept in the edge. *)
let target_node rs (ws : wstats) frame e =
  match e.e_target with
  | Node n ->
    ws.w_hits <- ws.w_hits + 1;
    n
  | World w ->
    let n = admit rs (Some (frame, e)) w in
    if n.n_id >= 0 then e.e_target <- Node n;
    n
  | Abort -> assert false (* [branch] ends an aborting execution itself *)

let lock_of rs n = rs.locks.(n.n_id land (Array.length rs.locks - 1))

(* ------------------------------------------------------------------ *)
(* On-path marks                                                       *)
(* ------------------------------------------------------------------ *)

(* The cycle check asks whether a world is on the current schedule
   path. A worker marks the admitted worlds of that path in [w_marks]:
   a frame marks its own node around its first branch, and a spawned
   branch marks its frame's whole path around its run, since the
   frames it descends from have long returned. *)

let on_path (ws : wstats) id =
  id < Bytes.length ws.w_marks && Bytes.unsafe_get ws.w_marks id <> '\000'

let set_mark (ws : wstats) (n : 'w node) c =
  let id = n.n_id in
  if id >= 0 then begin
    if id >= Bytes.length ws.w_marks then begin
      let len = ref (2 * Bytes.length ws.w_marks) in
      while !len <= id do
        len := 2 * !len
      done;
      let marks = Bytes.make !len '\000' in
      Bytes.blit ws.w_marks 0 marks 0 (Bytes.length ws.w_marks);
      ws.w_marks <- marks
    end;
    Bytes.unsafe_set ws.w_marks id c
  end

let rec set_marks ws c = function
  | [] -> ()
  | ((f, _) : 'w frame * 'w edge) :: rest ->
    set_mark ws f.f_node c;
    set_marks ws c rest

(* ------------------------------------------------------------------ *)
(* Wakeup sequences                                                    *)
(* ------------------------------------------------------------------ *)

(* The wakeup sequence being inserted lives in the worker's [w_v], and
   the happens-after set of the race being reversed in [w_after]: both
   are rebuilt per race, in place. *)

(** Does some step among the first [i] of [a] depend on [s]? *)
let rec dep_prefix (a : step array) s i =
  i > 0 && (vdep (Array.unsafe_get a (i - 1)) s || dep_prefix a s (i - 1))

let rec first_of (a : step array) n q i =
  if i >= n then -1
  else if (Array.unsafe_get a i).v_tid = q then i
  else first_of a n q (i + 1)

let rec tids_from (a : step array) n i =
  if i >= n then [] else a.(i).v_tid :: tids_from a n (i + 1)

(** The race's earlier transition: the newest edge on [path] (newest
    first) of another thread that [g]'s next step depends on, and the
    frame [fk] it was taken from. Unwinding, the edges after it are
    classified oldest first: an edge that depends on one happening
    after the earlier transition happens after it too; any other joins
    the wakeup sequence [notdep(e, E)]. [None] when there is no such
    edge, and as soon as the insertion is known to be void: when an
    edge of [g]'s own thread happens after it (program order then
    orders the pair, which is not a race), or when the sequence's head
    is already a branch or asleep at [fk] (it is a weak initial of the
    whole sequence, so the insertion is covered whatever follows; a
    branch, once spawned, stays, so an unlocked read that finds it
    agrees with the check under [fk]'s lock). *)
let rec racing ws (g : 'w group) = function
  | [] -> None
  | ((fk, tk) : 'w frame * 'w edge) :: rest -> (
    let t = tk.e_step in
    if t.v_tid <> g.g_tid && vdep g.g_step t then begin
      ws.w_v.n <- 0;
      ws.w_after.n <- 0;
      push ws.w_after t;
      Some fk
    end
    else
      match racing ws g rest with
      | None -> None
      | Some fk as found ->
        if dep_prefix ws.w_after.a t ws.w_after.n then begin
          push ws.w_after t;
          if t.v_tid = g.g_tid then None else found
        end
        else if
          ws.w_v.n = 0
          && (mem_tid t.v_tid fk.f_children || mem_tid t.v_tid fk.f_sleep)
        then None
        else begin
          push ws.w_v t;
          found
        end)

(** Is [q] a weak initial of the worker's wakeup sequence [v] at node
    [n]? [q ∈ WI(v)] iff [v]'s first step of thread [q] is not preceded
    in [v] by a dependent step (so [v ≃ q·v']), or [q] does not occur in
    [v] at all and its next step at [n] is independent with every step
    of [v] (so [q] commutes past all of [v]). *)
let weak_initial ws n q =
  let v = ws.w_v.a and len = ws.w_v.n in
  let i = first_of v len q 0 in
  if i >= 0 then not (dep_prefix v v.(i) i)
  else
    ISet.mem q n.n_enabled && not (dep_prefix v (group_of q n.n_groups).g_step len)

let rec any_weak_initial ws n = function
  | [] -> false
  | s :: rest -> weak_initial ws n s.v_tid || any_weak_initial ws n rest

(** Some weak initial of the worker's wakeup sequence is already a
    branch or asleep at [fk] — the source-set condition under which
    inserting it is redundant. Caller holds [fk.f_lock]. *)
let covered_locked ws fk =
  any_weak_initial ws fk.f_node fk.f_children
  || any_weak_initial ws fk.f_node fk.f_sleep

(* ------------------------------------------------------------------ *)
(* The exploration core                                                *)
(* ------------------------------------------------------------------ *)

(** Spawn a branch at [fk] starting with [fk]'s group [g] and guide
    [guide]. Caller holds [fk.f_lock]. The branch's sleep set is the
    frame's inherited sleep plus every older sibling's summary —
    snapshotted now, so later insertions cannot retroactively put this
    branch to sleep. The branch runs as a task, after the frames on
    [fk]'s path have returned, so it marks that path itself. *)
let rec spawn_locked rs ws fk g guide wc =
  ws.w_backs <- ws.w_backs + 1;
  let sleep = fk.f_sleep @ List.rev fk.f_children in
  fk.f_children <- g.g_step :: fk.f_children;
  Frontier.push wc (fun wc ->
      let ws = wstats_of rs wc in
      set_mark ws fk.f_node '\001';
      set_marks ws '\001' fk.f_path;
      branch rs ws fk g guide sleep wc;
      set_mark ws fk.f_node '\000';
      set_marks ws '\000' fk.f_path)

(** Insert the worker's wakeup sequence [v] at frame [fk] unless
    covered: some weak initial of [v] is already a spawned branch or a
    sleeping thread there (the source-set condition — either way the
    reversal's equivalence class is reached through that thread). The
    conservative fallback mirrors the classic algorithm: if [v]'s head
    is not enabled at [fk] (its enabling was itself a consequence of
    the race), schedule every enabled thread not already covered. *)
and insert_wakeup rs ws fk wc =
  Mutex.lock fk.f_lock;
  if not (covered_locked ws fk) then begin
    let n = fk.f_node and hd = ws.w_v.a.(0).v_tid in
    if ISet.mem hd n.n_enabled then
      spawn_locked rs ws fk (group_of hd n.n_groups)
        (tids_from ws.w_v.a ws.w_v.n 1) wc
    else
      ISet.iter
        (fun q ->
          if not (mem_tid q fk.f_children || mem_tid q fk.f_sleep) then
            spawn_locked rs ws fk (group_of q n.n_groups) [] wc)
        n.n_enabled
  end;
  Mutex.unlock fk.f_lock

(** Race reversal for pending group [g] at [frame]: find the most
    recent executed transition [e] of another thread that [g]'s next
    step depends on, build the wakeup sequence [notdep(e, E)·g], and
    insert it at [e]'s frame. Skipped when [g] happens-after [e]
    through its own earlier steps (program order makes the pair
    race-adjacent only if no such chain exists — reversing a
    happens-before edge is not a race, and inserting it is exactly the
    redundant work the old engine's sleep sets then blocked). The path
    summaries decide, without scanning the path, whether any such [e]
    exists. *)
and race_reversal rs ws frame (g : 'w group) wc =
  if history_conflicts g frame.f_hist then
    match racing ws g frame.f_path with
    | None -> ()
    | Some fk ->
      push ws.w_v g.g_step;
      insert_wakeup rs ws fk wc

and race_reversals rs ws frame groups wc =
  match groups with
  | [] -> ()
  | g :: rest ->
    race_reversal rs ws frame g wc;
    race_reversals rs ws frame rest wc

(** Cut rescue. The soundness argument needs *maximal* executions: a
    thread whose pending transitions never conflict with anything
    executed would otherwise never be scheduled, and cutting a branch
    at a cycle (one thread spinning) or at the depth bound ends it
    while other threads are still enabled — their subtrees would be
    lost, not reduced. So at every cut, each still-pending thread
    (a group of the cut world) is re-enabled at the most recent frame
    on [path] that could have scheduled it (unless already a branch or
    asleep there — asleep means an older sibling explored it, and
    maximality flows through that subtree). *)
and rescue rs ws path groups wc =
  match groups with
  | [] -> ()
  | g :: rest ->
    rescue_at rs ws g path wc;
    rescue rs ws path rest wc

and rescue_at rs ws g path wc =
  match path with
  | [] -> ()
  | ((f, _) : 'w frame * 'w edge) :: rest ->
    if ISet.mem g.g_tid f.f_node.n_enabled then begin
      (* a rescue is a wakeup insertion of the singleton ⟨g⟩: it gets
         the same source-set coverage filter — some weak initial of
         ⟨g⟩ already a branch or asleep here means the commuting
         class is reached through that thread (being one is how the
         rescued branch would otherwise end sleep-set-blocked) *)
      Mutex.lock f.f_lock;
      ws.w_v.n <- 0;
      push ws.w_v g.g_step;
      if not (covered_locked ws f) then
        spawn_locked rs ws f (group_of g.g_tid f.f_node.n_groups) [] wc;
      Mutex.unlock f.f_lock
    end
    else rescue_at rs ws g rest wc

(** Run one branch: group [g]'s transitions out of [frame], guided by
    the rest of the wakeup sequence, sleeping [sleep]. *)
and branch rs ws frame g guide sleep wc =
  if not (over_budget rs ws) then take rs ws frame guide sleep g.g_edges wc

and take rs ws frame guide sleep edges wc =
  match edges with
  | [] -> ()
  | e :: rest ->
    ws.w_trans <- ws.w_trans + 1;
    bump_path rs ws;
    (match e.e_target with
    | Abort ->
      Atomic.set rs.abort true;
      emit rs frame.f_cell Trace.SAbort
    | World _ | Node _ ->
      let s = e.e_step in
      let sleep' = if all_survive s sleep then sleep else survivors s sleep in
      if not (over_budget rs ws) then begin
        let n = target_node rs ws frame e in
        let cell =
          match e.e_label with
          | Mcsys.Levt ev when rs.collect -> rs.child frame.f_cell ev
          | Mcsys.Levt _ | Mcsys.Ltau | Mcsys.Lsw -> frame.f_cell
        in
        visit rs ws n ((frame, e) :: frame.f_path)
          (extend_hist frame.f_hist e)
          cell frame.f_refused (frame.f_depth + 1) sleep' guide wc
      end);
    take rs ws frame guide sleep rest wc

(** Visit node [n] at the end of schedule [path] (newest first), with
    its path summaries [hist], trie cell [cell], the keys [refused] of
    the refused worlds on the path, and [depth] transitions. [guide] is
    the rest of the wakeup sequence being replayed; an empty (or
    diverged) guide means free exploration: schedule the first
    non-sleeping thread, and let race reversals spawn the rest. *)
and visit rs ws n path hist cell refused depth sleep guide wc =
  if n.n_done then emit rs cell Trace.SDone
  else if depth >= rs.cfg.max_depth then begin
    Atomic.set rs.incomplete true;
    rescue rs ws path n.n_groups wc;
    emit rs cell Trace.SCut
  end
  else if
    if n.n_id >= 0 then on_path ws n.n_id
    else List.exists (String.equal n.n_key) refused
  then begin
    (* a cycle on the current schedule: the continuation diverges *)
    rescue rs ws path n.n_groups wc;
    emit rs cell Trace.SCut
  end
  else if n.n_groups = [] then emit rs cell Trace.SCut
  else begin
    let frame =
      {
        f_node = n;
        f_path = path;
        f_hist = hist;
        f_cell = cell;
        f_refused = (if n.n_id >= 0 then refused else n.n_key :: refused);
        f_depth = depth;
        f_sleep = sleep;
        f_lock = lock_of rs n;
        f_children = [];
      }
    in
    (* every pending thread may reverse a race with the history *)
    race_reversals rs ws frame n.n_groups wc;
    match guide with
    | gt :: grest when ISet.mem gt n.n_enabled && not (mem_tid gt sleep) ->
      first_branch rs ws frame (group_of gt n.n_groups) grest wc
    | _ ->
      (* guide done, diverged, or put to sleep by a sibling that beat
         it here: free exploration (guides only steer) *)
      free_branch rs ws frame n.n_groups wc
  end

(** Branch on the first group whose thread is awake. *)
and free_branch rs ws frame groups wc =
  match groups with
  | [] ->
    (* every pending thread is asleep: this schedule is a commuting
       reordering of one already explored. Source-set filtered
       insertion should never steer exploration here — this counter
       staying 0 is the optimality gate. *)
    ws.w_sleeps <- ws.w_sleeps + 1
  | g :: rest ->
    if mem_tid g.g_tid frame.f_sleep then free_branch rs ws frame rest wc
    else first_branch rs ws frame g [] wc

(** The frame's first branch, [g]'s, run in place with the frame's node
    marked on the path. It needs no lock: the frame becomes visible to
    other tasks only once we descend through it. *)
and first_branch rs ws frame g guide wc =
  frame.f_children <- [ g.g_step ];
  set_mark ws frame.f_node '\001';
  branch rs ws frame g guide frame.f_sleep wc;
  set_mark ws frame.f_node '\000'

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Distinct threads enabled at the roots: parallel exploration of a
    ≤1-thread system has nothing to reorder, so [run] short-circuits it
    to the sequential engine instead of spinning up a pool. *)
let root_width (sys : 'w Mcsys.t) (initials : 'w list) =
  List.fold_left
    (fun s w0 ->
      if sys.Mcsys.all_done w0 then s
      else
        List.fold_left
          (fun s (t : 'w Mcsys.trans) -> ISet.add t.Mcsys.tid s)
          s (sys.Mcsys.trans w0))
    ISet.empty initials
  |> ISet.cardinal

(** Run the DPOR engine. [collect] selects trace accumulation (trace
    enumeration) vs. pure reachability; [on_world] is called once per
    distinct world with the transitions the engine explores out of it
    ([] for a world where every thread is done), computed once and
    shared with the exploration. Under [jobs > 1] it runs under a lock,
    so race-predictor reductions stay race-free; their verdict must not
    depend on call order — [Cas_conc.Race] reduces by min
    [witness_key]. *)
let run ?(jobs = 1) ?(collect = true) ?(cfg = default_cfg) ?recorder
    (sys : 'w Mcsys.t) (initials : 'w list)
    ~(on_world : 'w -> 'w Mcsys.trans list -> unit) :
    Trace.result * Stats.t =
  let t0 = Unix.gettimeofday () *. 1e9 in
  let jobs = max 1 jobs in
  let jobs = if jobs > 1 && root_width sys initials <= 1 then 1 else jobs in
  let parallel = jobs > 1 in
  let store =
    Store.create ~shards:(if parallel then 8 * jobs else 1)
      ~capacity:cfg.max_worlds ()
  in
  let stripes =
    let rec pow2 n = if n >= 64 * jobs then n else pow2 (2 * n) in
    if parallel then pow2 1 else 1
  in
  let root = Trace.Trie.create () in
  let tlock = Mutex.create () in
  let wlock = Mutex.create () in
  let child, mark =
    if parallel then
      ( (fun c e ->
          Mutex.lock tlock;
          let k = Trace.Trie.child c e in
          Mutex.unlock tlock;
          k),
        fun c st ->
          Mutex.lock tlock;
          Trace.Trie.mark c st;
          Mutex.unlock tlock )
    else (Trace.Trie.child, Trace.Trie.mark)
  in
  let on_world =
    if parallel then fun w trans ->
      Mutex.lock wlock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock wlock)
        (fun () -> on_world w trans)
    else on_world
  in
  let rs =
    {
      sys;
      cfg;
      store;
      locks = Array.init stripes (fun _ -> Mutex.create ());
      recorder;
      on_world;
      collect;
      root;
      child;
      mark;
      paths = Atomic.make 0;
      abort = Atomic.make false;
      incomplete = Atomic.make false;
      wstats = Array.init jobs (fun _ -> wstats ());
    }
  in
  let roots =
    List.map
      (fun w0 wc ->
        (match rs.recorder with
        | Some r -> Recorder.root r (sys.Mcsys.fingerprint w0)
        | None -> ());
        let ws = wstats_of rs wc in
        if not (over_budget rs ws) then
          visit rs ws (admit rs None w0) [] [] rs.root [] 0 [] [] wc)
      initials
  in
  let steals = Frontier.run_stealing ~jobs roots in
  let fold f = Array.fold_left (fun acc ws -> acc + f ws) 0 rs.wstats in
  ( {
      Trace.traces = Trace.Trie.to_set root;
      complete = not (Atomic.get rs.incomplete);
    },
    {
      Stats.engine = (if parallel then Fmt.str "dpor-par(%d)" jobs else "dpor");
      worlds = Store.distinct store;
      transitions = fold (fun ws -> ws.w_trans);
      sleep_prunings = fold (fun ws -> ws.w_sleeps);
      backtracks = fold (fun ws -> ws.w_backs);
      steals;
      store_hits = Store.hits store + fold (fun ws -> ws.w_hits);
      truncated = Atomic.get rs.incomplete;
      abort_reachable = Atomic.get rs.abort;
      wall_ns = (Unix.gettimeofday () *. 1e9) -. t0;
    } )
