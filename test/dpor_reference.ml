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
    shared across domains and protected by a per-frame mutex; the
    visited-world *set* is interleaving-independent (sleep sets prune
    only redundant transitions, never states — Godefroid — and branch
    insertion is determined by the tree, not the schedule), which the
    determinism tests and CI assert. Per-domain counters are folded at
    join; verdict and witness selection stay deterministic via the
    min-[witness_key] reduction in [Cas_conc.Race].

    Bookkeeping per visit is one state-table lookup ([Store]): the
    slot that says whether the world is new also memoizes its
    transition groups, computed once, when the world is admitted, and
    handed to [on_world] so the visitor never steps the world again.
    Each frame carries per-thread footprint summaries of its path
    ([f_hist]), so race reversal scans the path only when some other
    thread's history actually conflicts with the pending step.

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
module SSet = Set.Make (String)

type cfg = { max_worlds : int; max_depth : int; max_paths : int }

let default_cfg =
  { max_worlds = 200_000; max_depth = 4000; max_paths = 200_000 }

(* ------------------------------------------------------------------ *)
(* Per-thread transition groups                                        *)
(* ------------------------------------------------------------------ *)

(** All transitions of one thread at one world, with the footprint/
    observability summary used for dependence at thread granularity
    (a thread's transitions from a given world are mutually dependent —
    they are alternative next steps of the same sequential core). *)
type 'w group = {
  g_tid : int;
  g_trans : 'w Mcsys.trans list;
  g_fp : Footprint.t;
  g_obs : bool;
}

(** Groups in order of each thread's first transition, transitions in
    their original order within a group. Systems list a thread's
    transitions mostly contiguously, so one partition per thread is
    linear in practice and allocates no table. *)
let rec group_by_tid (trans : 'w Mcsys.trans list) : 'w group list =
  match trans with
  | [] -> []
  | t :: _ ->
    let tid = t.Mcsys.tid in
    let ts, rest =
      List.partition (fun (u : 'w Mcsys.trans) -> u.Mcsys.tid = tid) trans
    in
    {
      g_tid = tid;
      g_trans = ts;
      g_fp =
        List.fold_left
          (fun acc (u : 'w Mcsys.trans) -> Footprint.union acc u.Mcsys.fp)
          Footprint.empty ts;
      g_obs = List.exists Mcsys.is_obs ts;
    }
    :: group_by_tid rest

(** Is thread [g]'s next step (at the current world) dependent with the
    executed transition [t]? *)
let dep_group (g : 'w group) (t : 'w Mcsys.trans) =
  g.g_tid = t.Mcsys.tid
  || Footprint.conflict g.g_fp t.Mcsys.fp
  || (g.g_obs && Mcsys.is_obs t)

(* ------------------------------------------------------------------ *)
(* Sleep sets                                                          *)
(* ------------------------------------------------------------------ *)

(** A sleeping thread: explored from an earlier sibling branch, skipped
    here unless a dependent transition wakes it (removes it). *)
type slept = { s_tid : int; s_fp : Footprint.t; s_obs : bool }

let slept_of_group g = { s_tid = g.g_tid; s_fp = g.g_fp; s_obs = g.g_obs }

let survives_sleep (s : slept) (t : 'w Mcsys.trans) =
  s.s_tid <> t.Mcsys.tid
  && (not (Footprint.conflict s.s_fp t.Mcsys.fp))
  && not (s.s_obs && Mcsys.is_obs t)

(* ------------------------------------------------------------------ *)
(* Wakeup sequences                                                    *)
(* ------------------------------------------------------------------ *)

(** One step of a wakeup sequence: the thread-granular dependence
    summary of an executed transition (or of a pending group's next
    step, for the final element). Path summaries use the same shape
    for the union of a thread's transitions. *)
type vstep = { v_tid : int; v_fp : Footprint.t; v_obs : bool }

let vstep_of_trans (t : 'w Mcsys.trans) =
  { v_tid = t.Mcsys.tid; v_fp = t.Mcsys.fp; v_obs = Mcsys.is_obs t }

let vstep_of_group (g : 'w group) =
  { v_tid = g.g_tid; v_fp = g.g_fp; v_obs = g.g_obs }

let vdep a b =
  a.v_tid = b.v_tid
  || Footprint.conflict a.v_fp b.v_fp
  || (a.v_obs && b.v_obs)

(* ------------------------------------------------------------------ *)
(* Path summaries                                                      *)
(* ------------------------------------------------------------------ *)

(** A frame's path summaries: for each thread that has executed, one
    [vstep] whose footprint and observability are the union of that
    thread's transitions on the path. Conflict distributes over union,
    so a pending group depends on some transition of thread [h] on the
    path iff it depends on [h]'s summary: race reversal consults the
    summaries first and scans the path only when one of them says a
    dependent transition exists. *)
let extend_hist (hs : vstep list) (t : 'w Mcsys.trans) =
  let tid = t.Mcsys.tid and fp = t.Mcsys.fp and obs = Mcsys.is_obs t in
  match List.find_opt (fun h -> h.v_tid = tid) hs with
  | Some h when Footprint.subset fp h.v_fp && (h.v_obs || not obs) ->
    hs (* unchanged: frames share it *)
  | Some _ ->
    List.map
      (fun h ->
        if h.v_tid = tid then
          { h with v_fp = Footprint.union h.v_fp fp; v_obs = h.v_obs || obs }
        else h)
      hs
  | None ->
    if Footprint.is_empty fp && not obs then hs
    else { v_tid = tid; v_fp = fp; v_obs = obs } :: hs

(** Does some other thread's history hold a transition [g]'s next step
    depends on? Exactly when [race_reversal]'s path scan would find one. *)
let history_conflicts (hs : vstep list) (g : 'w group) =
  List.exists
    (fun h ->
      h.v_tid <> g.g_tid
      && (Footprint.conflict g.g_fp h.v_fp || (g.g_obs && h.v_obs)))
    hs

(* ------------------------------------------------------------------ *)
(* Frames: shared exploration-tree nodes                               *)
(* ------------------------------------------------------------------ *)

(** A branch already spawned at a frame: its first thread (the source
    set grows one thread per insertion) and the sleep summary younger
    siblings inherit. *)
type child = { c_tid : int; c_slept : slept }

(** One node of the exploration tree. Immutable but for [f_children],
    which grows under [f_lock] while descendants — possibly running on
    other domains — discover races that insert wakeup sequences here. *)
type 'w frame = {
  f_fp : string;
  f_groups : 'w group list;
  f_enabled : ISet.t;
  f_path : ('w frame * 'w Mcsys.trans) list;
      (** schedule to here, newest first: each element pairs an executed
          transition with the frame it was taken {e from} (pre(S, i)) *)
  f_hist : vstep list;  (** per-thread summaries of [f_path] *)
  f_events : Event.t list;
      (** reversed event trace to here; [] when traces are not kept *)
  f_on_path : SSet.t;  (** fingerprints on the path, including this *)
  f_depth : int;
  f_sleep : slept list;  (** sleep set this frame was entered with *)
  f_lock : Mutex.t;
  mutable f_children : child list;  (** newest first; under [f_lock] *)
}

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

(** Per-worker counters, folded into [Stats] at join: stealing domains
    must not fight over counter cachelines on the hot path. Only the
    path budget needs cross-domain visibility, so it alone is flushed
    to a shared atomic, in batches. *)
type wstats = {
  mutable w_trans : int;
  mutable w_pend : int;  (** paths counted but not yet flushed *)
  mutable w_sleeps : int;
  mutable w_backs : int;
}

let flush_batch = 256

type 'w state = {
  sys : 'w Mcsys.t;
  cfg : cfg;
  store : 'w group list Store.t;
      (** each admitted world's slot memoizes its transition groups:
          DPOR revisits a state along many schedule prefixes (the tree
          is sized by paths, not states), and groups are immutable once
          built, so every revisit — and every cut rescue — reads them
          from the slot instead of re-running the semantics *)
  recorder : Recorder.t option;
  on_world : 'w -> 'w Mcsys.trans list -> unit;
  collect : bool;  (** keep event traces *)
  emit : Trace.t -> unit;
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

(** Record an execution ending in [status] after the reversed event
    trace [events] — reversed only when traces are kept. *)
let emit rs events status =
  if rs.collect then rs.emit (List.rev events, status)

(** A world's transition groups: from its table slot, computed and
    memoized there on first need ([slot] is [None] for a world the full
    table refused, whose groups are recomputed at every visit). *)
let groups_of rs slot w =
  match Option.bind slot Store.get with
  | Some gs -> gs
  | None ->
    let gs = group_by_tid (rs.sys.Mcsys.trans w) in
    Option.iter (fun sl -> Store.fill sl gs) slot;
    gs

(* ------------------------------------------------------------------ *)
(* Source-set coverage                                                 *)
(* ------------------------------------------------------------------ *)

(** Is [q] a weak initial of wakeup sequence [v] at a frame whose
    pending groups are [groups]? [q ∈ WI(v)] iff [v]'s first step of
    thread [q] is not preceded in [v] by a dependent step (so
    [v ≃ q·v']), or [q] does not occur in [v] at all and its next step
    at the frame is independent with every step of [v] (so [q] commutes
    past all of [v]). *)
let weak_initial groups (v : vstep list) q =
  let rec first_of earlier = function
    | [] -> None
    | s :: rest ->
      if s.v_tid = q then Some (s, earlier) else first_of (s :: earlier) rest
  in
  match first_of [] v with
  | Some (s, earlier) -> not (List.exists (fun e -> vdep e s) earlier)
  | None -> (
    match List.find_opt (fun g -> g.g_tid = q) groups with
    | None -> false
    | Some gq ->
      let sq = vstep_of_group gq in
      not (List.exists (fun s -> vdep sq s) v))

(** Some weak initial of [v] is already a branch or asleep at [fk] —
    the source-set condition under which inserting [v] is redundant.
    Caller holds [fk.f_lock]. *)
let covered_locked fk v =
  let wi q = weak_initial fk.f_groups v q in
  List.exists (fun (c : child) -> wi c.c_tid) fk.f_children
  || List.exists (fun (s : slept) -> wi s.s_tid) fk.f_sleep

(* ------------------------------------------------------------------ *)
(* The exploration core                                                *)
(* ------------------------------------------------------------------ *)

(** Spawn a branch at [fk] starting with thread [tid] and guide
    [guide]. Caller holds [fk.f_lock]. The branch's sleep set is the
    frame's inherited sleep plus every older sibling's summary —
    snapshotted now, so later insertions cannot retroactively put this
    branch to sleep. *)
let rec spawn_locked rs fk tid guide wc =
  let ws = wstats_of rs wc in
  ws.w_backs <- ws.w_backs + 1;
  let slept =
    match List.find_opt (fun g -> g.g_tid = tid) fk.f_groups with
    | Some g -> slept_of_group g
    | None -> { s_tid = tid; s_fp = Footprint.empty; s_obs = false }
  in
  let sleep =
    fk.f_sleep @ List.rev_map (fun c -> c.c_slept) fk.f_children
  in
  fk.f_children <- { c_tid = tid; c_slept = slept } :: fk.f_children;
  Frontier.push wc (fun wc' -> branch rs fk tid guide sleep wc')

(** Insert wakeup sequence [v] at frame [fk] unless covered: some weak
    initial of [v] is already a spawned branch or a sleeping thread
    there (the source-set condition — either way the reversal's
    equivalence class is reached through that thread). The conservative
    fallback mirrors the classic algorithm: if [v]'s head is not
    enabled at [fk] (its enabling was itself a consequence of the
    race), schedule every enabled thread not already covered. *)
and insert_wakeup rs fk (v : vstep list) wc =
  match v with
  | [] -> ()
  | hd :: _ ->
    Mutex.lock fk.f_lock;
    if not (covered_locked fk v) then begin
      if ISet.mem hd.v_tid fk.f_enabled then
        spawn_locked rs fk hd.v_tid
          (List.map (fun s -> s.v_tid) (List.tl v))
          wc
      else
        ISet.iter
          (fun q ->
            if
              (not
                 (List.exists (fun (c : child) -> c.c_tid = q) fk.f_children))
              && not (List.exists (fun (s : slept) -> s.s_tid = q) fk.f_sleep)
            then spawn_locked rs fk q [] wc)
          fk.f_enabled
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
and race_reversal rs frame (g : 'w group) wc =
  if history_conflicts frame.f_hist g then
    match
      List.find_opt
        (fun ((_, tk) : 'w frame * 'w Mcsys.trans) ->
          tk.Mcsys.tid <> g.g_tid && dep_group g tk)
        frame.f_path
    with
    | None -> ()
    | Some (fk, tk) ->
      (* transitions executed after [tk], oldest first *)
      let suffix =
        let rec go acc = function
          | ((f', _) as entry) :: rest ->
            if f' == fk then acc else go (entry :: acc) rest
          | [] -> acc
        in
        go [] frame.f_path
      in
      let e = vstep_of_trans tk in
      let after = ref [ e ] in
      let race = ref true in
      let notdep =
        List.filter_map
          (fun ((_, t') : 'w frame * 'w Mcsys.trans) ->
            let s = vstep_of_trans t' in
            if List.exists (fun a -> vdep a s) !after then begin
              after := s :: !after;
              if s.v_tid = g.g_tid then race := false;
              None
            end
            else Some s)
          suffix
      in
      if !race then insert_wakeup rs fk (notdep @ [ vstep_of_group g ]) wc

(** Cut rescue. The soundness argument needs *maximal* executions: a
    thread whose pending transitions never conflict with anything
    executed would otherwise never be scheduled, and cutting a branch
    at a cycle (one thread spinning) or at the depth bound ends it
    while other threads are still enabled — their subtrees would be
    lost, not reduced. So at every cut, each still-pending thread
    (a group of the cut world) is re-enabled at the most recent frame
    that could have scheduled it (unless already a branch or asleep
    there — asleep means an older sibling explored it, and maximality
    flows through that subtree). *)
and rescue rs path groups wc =
  List.iter
    (fun g ->
      match
        List.find_opt
          (fun ((f, _) : 'w frame * 'w Mcsys.trans) ->
            ISet.mem g.g_tid f.f_enabled)
          path
      with
      | None -> ()
      | Some (f, _) ->
        (* a rescue is a wakeup insertion of the singleton ⟨g⟩: it gets
           the same source-set coverage filter — some weak initial of
           ⟨g⟩ already a branch or asleep here means the commuting
           class is reached through that thread (being one is how the
           rescued branch would otherwise end sleep-set-blocked) *)
        Mutex.lock f.f_lock;
        if not (covered_locked f [ vstep_of_group g ]) then
          spawn_locked rs f g.g_tid [] wc;
        Mutex.unlock f.f_lock)
    groups

(** Run one branch: thread [tid]'s transitions out of [frame], guided
    by the rest of the wakeup sequence, sleeping [sleep]. *)
and branch rs frame tid guide sleep wc =
  let ws = wstats_of rs wc in
  if not (over_budget rs ws) then
    match List.find_opt (fun g -> g.g_tid = tid) frame.f_groups with
    | None -> () (* a rescued thread with no pending transition *)
    | Some g ->
      List.iter
        (fun (t : 'w Mcsys.trans) ->
          ws.w_trans <- ws.w_trans + 1;
          bump_path rs ws;
          match t.Mcsys.target with
          | Mcsys.Abort ->
            Atomic.set rs.abort true;
            emit rs frame.f_events Trace.SAbort
          | Mcsys.Next w' ->
            let sleep' =
              if List.for_all (fun s -> survives_sleep s t) sleep then sleep
              else List.filter (fun s -> survives_sleep s t) sleep
            in
            visit rs (Some (frame, t)) w' sleep' guide wc)
        g.g_trans

(** Visit world [w], reached from [parent] — the frame it was stepped
    from and the executed transition — or an initial world when
    [parent] is [None]. The edge is recorded against this world's
    fingerprint, which is computed here anyway for the table, so
    recording costs no extra fingerprints. [guide] is the rest of the
    wakeup sequence being replayed; an empty (or diverged) guide means
    free exploration: schedule the first non-sleeping thread, and let
    race reversals spawn the rest. *)
and visit rs parent w sleep guide wc =
  let ws = wstats_of rs wc in
  if over_budget rs ws then ()
  else begin
    let wfp = rs.sys.Mcsys.fingerprint w in
    let done_ = rs.sys.Mcsys.all_done w in
    let slot =
      match Store.add rs.store wfp with
      | `New slot ->
        (* first admission: record the spanning-tree edge that led here
           (the parent is already recorded — it was admitted, and so
           recorded, before any task could descend through it), then
           hand the world and its transitions to the visitor, memoizing
           them for every later visit *)
        (match (rs.recorder, parent) with
        | Some r, Some (f, (t : 'w Mcsys.trans)) ->
          Recorder.record r ~parent:f.f_fp
            {
              Recorder.r_tid = t.Mcsys.tid;
              r_label = t.Mcsys.label;
              r_fp = t.Mcsys.fp;
            }
            ~child:wfp
        | _ -> ());
        if done_ then rs.on_world w []
        else begin
          let trans = rs.sys.Mcsys.trans w in
          Store.fill slot (group_by_tid trans);
          rs.on_world w trans
        end;
        Some slot
      | `Seen slot -> Some slot
      | `Full ->
        Atomic.set rs.incomplete true;
        None
    in
    let path, hist, events, on_path, depth =
      match parent with
      | None -> ([], [], [], SSet.empty, 0)
      | Some (f, t) ->
        ( (f, t) :: f.f_path,
          extend_hist f.f_hist t,
          (match t.Mcsys.label with
          | Mcsys.Levt e when rs.collect -> e :: f.f_events
          | Mcsys.Levt _ | Mcsys.Ltau | Mcsys.Lsw -> f.f_events),
          f.f_on_path,
          f.f_depth + 1 )
    in
    if done_ then emit rs events Trace.SDone
    else if depth >= rs.cfg.max_depth then begin
      Atomic.set rs.incomplete true;
      rescue rs path (groups_of rs slot w) wc;
      emit rs events Trace.SCut
    end
    else if SSet.mem wfp on_path then begin
      (* a cycle on the current schedule: the continuation diverges *)
      rescue rs path (groups_of rs slot w) wc;
      emit rs events Trace.SCut
    end
    else begin
      let groups = groups_of rs slot w in
      if groups = [] then emit rs events Trace.SCut
      else begin
        let enabled =
          List.fold_left (fun s g -> ISet.add g.g_tid s) ISet.empty groups
        in
        let frame =
          {
            f_fp = wfp;
            f_groups = groups;
            f_enabled = enabled;
            f_path = path;
            f_hist = hist;
            f_events = events;
            f_on_path = SSet.add wfp on_path;
            f_depth = depth;
            f_sleep = sleep;
            f_lock = Mutex.create ();
            f_children = [];
          }
        in
        (* every pending thread may reverse a race with the history *)
        List.iter (fun g -> race_reversal rs frame g wc) groups;
        let asleep tid = List.exists (fun s -> s.s_tid = tid) sleep in
        let first =
          match guide with
          | gt :: grest
            when List.exists (fun g -> g.g_tid = gt) groups
                 && not (asleep gt) ->
            Some (gt, grest)
          | _ -> (
            (* guide done, diverged, or put to sleep by a sibling that
               beat it here: free exploration (guides only steer) *)
            match List.find_opt (fun g -> not (asleep g.g_tid)) groups with
            | Some g0 -> Some (g0.g_tid, [])
            | None -> None)
        in
        match first with
        | None ->
          (* every pending thread is asleep: this schedule is a
             commuting reordering of one already explored. Source-set
             filtered insertion should never steer exploration here —
             this counter staying 0 is the optimality gate. *)
          ws.w_sleeps <- ws.w_sleeps + 1
        | Some (tid, grest) ->
          (* the first branch needs no lock: the frame becomes visible
             to other tasks only once we descend through it *)
          let slept =
            match List.find_opt (fun g -> g.g_tid = tid) frame.f_groups with
            | Some g -> slept_of_group g
            | None -> assert false
          in
          frame.f_children <- [ { c_tid = tid; c_slept = slept } ];
          branch rs frame tid grest sleep wc
      end
    end
  end

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
  let traces = ref Trace.Set.empty in
  let tlock = Mutex.create () in
  let wlock = Mutex.create () in
  let emit tr =
    if parallel then begin
      Mutex.lock tlock;
      traces := Trace.Set.add tr !traces;
      Mutex.unlock tlock
    end
    else traces := Trace.Set.add tr !traces
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
      recorder;
      on_world;
      collect;
      emit;
      paths = Atomic.make 0;
      abort = Atomic.make false;
      incomplete = Atomic.make false;
      wstats =
        Array.init jobs (fun _ ->
            { w_trans = 0; w_pend = 0; w_sleeps = 0; w_backs = 0 });
    }
  in
  let roots =
    List.map
      (fun w0 wc ->
        (match rs.recorder with
        | Some r -> Recorder.root r (sys.Mcsys.fingerprint w0)
        | None -> ());
        visit rs None w0 [] [] wc)
      initials
  in
  let steals = Frontier.run_stealing ~jobs roots in
  let fold f = Array.fold_left (fun acc ws -> acc + f ws) 0 rs.wstats in
  ( { Trace.traces = !traces; complete = not (Atomic.get rs.incomplete) },
    {
      Stats.engine = (if parallel then Fmt.str "dpor-par(%d)" jobs else "dpor");
      worlds = Store.distinct store;
      transitions = fold (fun ws -> ws.w_trans);
      sleep_prunings = fold (fun ws -> ws.w_sleeps);
      backtracks = fold (fun ws -> ws.w_backs);
      steals;
      store_hits = Store.hits store;
      truncated = Atomic.get rs.incomplete;
      abort_reachable = Atomic.get rs.abort;
      wall_ns = (Unix.gettimeofday () *. 1e9) -. t0;
    } )
