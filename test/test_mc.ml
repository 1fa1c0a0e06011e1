(** Differential tests for the [Cas_mc] exploration engines.

    Every engine explores the thread-selection view of the preemptive
    semantics ([Engine.selection_system]). The naive engine is the
    oracle: unreduced search of that graph. The DPOR engines must agree
    with it on every engine-invariant observable — DRF verdicts, abort
    reachability, and the sets of completed/aborted event traces — while
    exploring strictly fewer worlds of the same graph. [SCut] entries
    are compared only on acyclic programs: a cycle cut records the
    events seen up to the cut, and DPOR's reordered schedules cut a
    cyclic execution at other points than the naive enumeration does.

    Fig. 7's scheduler-explicit step function ([Preemptive.steps]) is
    checked against the selection view here, through [Gsem.system]. *)

open Cas_base
open Cas_langs
open Cas_conc

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let load p =
  match World.load p ~args:[] with
  | Error e -> Alcotest.failf "load: %a" World.pp_load_error e
  | Ok w -> w

let engines = [ Engine.Naive; Engine.Dpor; Engine.Dpor_par ]

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let prints_prog n =
  Lang.prog
    [
      Lang.Mod
        (Clight.lang, Parse.clight {| void f() { print(1); print(2); } |});
    ]
    (List.init n (fun _ -> "f"))

let producer_consumer_prog () =
  Lang.prog
    [
      Lang.Mod (Clight.lang, Corpus.producer_consumer ());
      Lang.Mod (Cimp.lang, Corpus.gamma_lock ());
    ]
    [ "producer"; "consumer" ]

let lock_counter_3_prog () =
  Lang.prog
    [
      Lang.Mod (Clight.lang, Corpus.counter ());
      Lang.Mod (Cimp.lang, Corpus.gamma_lock ());
    ]
    [ "inc"; "inc"; "inc" ]

(* unlock() on a free lock aborts (Fig. 10(a) asserts L == 1), so abort
   reachability is exercised on a program where it is actually reachable *)
let double_unlock_prog () =
  Lang.prog
    [ Lang.Mod (Cimp.lang, Corpus.gamma_lock ()) ]
    [ "unlock"; "unlock" ]

let drf_corpus () =
  [
    ("lock-counter", Corpus.lock_counter_prog ());
    ("racy", Corpus.racy_prog ());
    ("observer", Corpus.observer_prog ());
    ("producer-consumer", producer_consumer_prog ());
    ("prints-2", prints_prog 2);
    ("double-unlock", double_unlock_prog ());
  ]

let trace_corpus () =
  [
    ("lock-counter", Corpus.lock_counter_prog ());
    ("racy", Corpus.racy_prog ());
    ("observer", Corpus.observer_prog ());
    ("prints-2", prints_prog 2);
    ("double-unlock", double_unlock_prog ());
  ]

(* ------------------------------------------------------------------ *)
(* Store unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let is_new = function `New _ -> true | `Seen _ | `Full -> false
let is_seen = function `Seen _ -> true | `New _ | `Full -> false
let is_full = function `Full -> true | `New _ | `Seen _ -> false

let test_store_accounting () =
  let s : string Cas_mc.Store.t =
    Cas_mc.Store.create ~shards:4 ~capacity:3 ()
  in
  let a = Cas_mc.Store.add s "a" in
  check tbool "a is new" true (is_new a);
  (match a with `New slot -> Cas_mc.Store.fill slot "groups of a" | _ -> ());
  let a' = Cas_mc.Store.add s "a" in
  check tbool "a again is seen" true (is_seen a');
  check tbool "a's seen slot is the one filled at new" true
    (match a' with
    | `Seen slot -> Cas_mc.Store.get slot = Some "groups of a"
    | `New _ | `Full -> false);
  check tbool "b is new" true (is_new (Cas_mc.Store.add s "b"));
  check tbool "c is new" true (is_new (Cas_mc.Store.add s "c"));
  (* the refusal carries no slot by construction: its constructor has
     no argument, so nothing can be memoized for a refused key *)
  check tbool "d hits capacity" true (is_full (Cas_mc.Store.add s "d"));
  check tbool "d stays refused, still without a slot" true
    (is_full (Cas_mc.Store.add s "d"));
  check tbool "a still seen at capacity" true
    (is_seen (Cas_mc.Store.add s "a"));
  check tint "distinct" 3 (Cas_mc.Store.distinct s);
  check tint "hits" 2 (Cas_mc.Store.hits s);
  check tbool "truncated" true (Cas_mc.Store.truncated s);
  check tbool "mem a" true (Cas_mc.Store.mem s "a");
  check tbool "not mem d" false (Cas_mc.Store.mem s "d")

(* A slot is the key's own table cell, relinked in place when a shard
   grows: slots filled before any number of growths still answer for
   their keys, on one shard and on several. *)
let test_store_slots_survive_growth () =
  List.iter
    (fun shards ->
      let s : int Cas_mc.Store.t =
        Cas_mc.Store.create ~shards ~capacity:5000 ()
      in
      for i = 0 to 4999 do
        match Cas_mc.Store.add s (string_of_int i) with
        | `New slot -> Cas_mc.Store.fill slot i
        | `Seen _ | `Full -> Alcotest.failf "key %d not new" i
      done;
      check tint (Fmt.str "%d shards: distinct" shards) 5000
        (Cas_mc.Store.distinct s);
      for i = 0 to 4999 do
        match Cas_mc.Store.add s (string_of_int i) with
        | `Seen slot ->
          if Cas_mc.Store.get slot <> Some i then
            Alcotest.failf "%d shards: key %d lost its slot" shards i
        | `New _ | `Full -> Alcotest.failf "key %d not seen" i
      done;
      check tint (Fmt.str "%d shards: hits" shards) 5000 (Cas_mc.Store.hits s))
    [ 1; 3 ]

(* The capacity cap is approximate under parallel insertion by at most
   D - 1 keys for D racing domains (see [Store]), and the [full] flag is
   set-only: hammer a full store from several domains and check both. *)
let test_store_full_parallel () =
  let jobs = 4 in
  let capacity = 500 in
  for round = 1 to 3 do
    let s : unit Cas_mc.Store.t =
      Cas_mc.Store.create ~shards:16 ~capacity ()
    in
    let tasks =
      List.init jobs (fun d () ->
          for i = 0 to 1999 do
            ignore (Cas_mc.Store.add s (Fmt.str "%d-%d-%d" round d i))
          done)
    in
    ignore (Pool.run ~jobs tasks);
    check tbool
      (Fmt.str "round %d: full store is truncated" round)
      true
      (Cas_mc.Store.truncated s);
    check tbool
      (Fmt.str "round %d: at least capacity admitted" round)
      true
      (Cas_mc.Store.distinct s >= capacity);
    check tbool
      (Fmt.str "round %d: over-admission < %d domains" round jobs)
      true
      (Cas_mc.Store.distinct s <= capacity + jobs - 1);
    (* late arrivals after saturation cannot clear the flag *)
    ignore (Cas_mc.Store.add s "straggler");
    check tbool
      (Fmt.str "round %d: still truncated after straggler" round)
      true
      (Cas_mc.Store.truncated s)
  done

let test_engine_names () =
  List.iter
    (fun e ->
      check tbool
        (Fmt.str "%s roundtrips" (Engine.to_string e))
        true
        (Engine.of_string (Engine.to_string e) = Ok e))
    Engine.all;
  check tbool "unknown engine rejected" true
    (Result.is_error (Engine.of_string "bfs"))

(* ------------------------------------------------------------------ *)
(* Differential: DRF verdicts                                          *)
(* ------------------------------------------------------------------ *)

let test_drf_verdicts_agree () =
  List.iter
    (fun (name, p) ->
      let w = load p in
      let verdicts =
        List.map (fun e -> (Race.drf ~engine:e ~jobs:2 w).Race.drf) engines
      in
      match verdicts with
      | [ naive; dpor; dpor_par ] ->
        check tbool (Fmt.str "%s: dpor agrees with naive" name) naive dpor;
        check tbool
          (Fmt.str "%s: dpor-par agrees with naive" name)
          naive dpor_par
      | _ -> assert false)
    (drf_corpus ())

(* ------------------------------------------------------------------ *)
(* Differential: trace sets and abort reachability                     *)
(* ------------------------------------------------------------------ *)

let completed (r : Explore.trace_result) =
  Explore.TraceSet.filter (fun (_, st) -> st <> Explore.SCut) r.Explore.traces

let has_abort (r : Explore.trace_result) =
  Explore.TraceSet.elements r.Explore.traces
  |> List.exists (fun (_, st) -> st = Explore.SAbort)

(* The naive oracle enumerates *paths* of the scheduler-explicit graph,
   so its budget can truncate where DPOR completes (every switch
   placement multiplies the path count; a spin lock alone exhausts it).
   Every completed naive trace is a real execution, hence always a
   subset of DPOR's set; equality is asserted whenever the oracle
   finished. On this corpus the DPOR engines must always finish. *)
let test_trace_sets_agree () =
  List.iter
    (fun (name, p) ->
      let w = load p in
      let naive = fst (Engine.traces ~engine:Engine.Naive w) in
      let dpor = fst (Engine.traces ~engine:Engine.Dpor w) in
      let dpor_par = fst (Engine.traces ~engine:Engine.Dpor_par ~jobs:2 w) in
      check tbool
        (Fmt.str "%s: dpor completes" name)
        true
        (dpor.Explore.complete && dpor_par.Explore.complete);
      check tbool
        (Fmt.str "%s: dpor-par done+abort traces = dpor" name)
        true
        (Explore.TraceSet.equal (completed dpor) (completed dpor_par));
      check tbool
        (Fmt.str "%s: naive done+abort traces within dpor's" name)
        true
        (Explore.TraceSet.subset (completed naive) (completed dpor));
      if naive.Explore.complete then begin
        check tbool
          (Fmt.str "%s: dpor done+abort traces = naive" name)
          true
          (Explore.TraceSet.equal (completed naive) (completed dpor));
        check tbool
          (Fmt.str "%s: abort reachability agrees" name)
          (has_abort naive) (has_abort dpor)
      end)
    (trace_corpus ())

let test_double_unlock_aborts () =
  let w = load (double_unlock_prog ()) in
  List.iter
    (fun e ->
      let r, st = Engine.traces ~engine:e w in
      check tbool
        (Fmt.str "[%s] abort trace found" (Engine.to_string e))
        true (has_abort r);
      check tbool
        (Fmt.str "[%s] stats flag abort" (Engine.to_string e))
        true st.Cas_mc.Stats.abort_reachable)
    engines

(* Within one transition system the DPOR trace set must equal the full
   naive enumeration *including* SCut entries; run the naive engine on
   the same selection view DPOR explores (acyclic programs, so SCut can
   only come from budgets, which these programs never hit). *)
let test_full_sets_on_selection_view () =
  List.iter
    (fun (name, p) ->
      let w = load p in
      let naive_sel, _ =
        Cas_mc.Engine.traces Engine.selection_system [ w ]
      in
      let dpor, _ = Cas_mc.Engine.traces ~engine:Cas_mc.Engine.Dpor
          Engine.selection_system [ w ]
      in
      check tbool
        (Fmt.str "%s: full trace sets equal on the selection view" name)
        true
        (Explore.TraceSet.equal naive_sel.Explore.traces dpor.Explore.traces))
    [
      ("racy", Corpus.racy_prog ());
      ("prints-2", prints_prog 2);
      ("observer", Corpus.observer_prog ());
    ]

let test_jobs_insensitive () =
  let w = load (Corpus.lock_counter_prog ()) in
  let base = fst (Engine.traces ~engine:Engine.Dpor w) in
  List.iter
    (fun jobs ->
      let r = fst (Engine.traces ~engine:Engine.Dpor_par ~jobs w) in
      check tbool
        (Fmt.str "jobs=%d traces = sequential dpor" jobs)
        true
        (Explore.TraceSet.equal base.Explore.traces r.Explore.traces))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Fig. 7's step function against the selection view                   *)
(* ------------------------------------------------------------------ *)

(* The observables of one graph, by naive search: completed (done and
   abort) traces, abort reachability and the DRF verdict. *)
type observables = {
  o_completed : Explore.TraceSet.t;
  o_traces_complete : bool;
  o_abort : bool;
  o_drf : bool;
}

let observables (sys : World.t Cas_mc.Mcsys.t) initials =
  let tr, _ = Cas_mc.Naive.traces sys initials in
  let racy = ref false in
  let st =
    Cas_mc.Naive.reachable sys initials ~visit:(fun w _ ->
        if Race.races w then racy := true)
  in
  {
    o_completed = completed tr;
    o_traces_complete = tr.Explore.complete;
    o_abort = st.Cas_mc.Stats.abort_reachable;
    o_drf = not !racy;
  }

(* Fig. 7's scheduler-explicit semantics, where switches are transitions
   and [cur] is part of the state, and the selection view every engine
   explores. *)
let fig7_and_selection w =
  ( observables (Gsem.system Preemptive.steps) (Gsem.initials w),
    observables Engine.selection_system [ w ] )

(* Completed traces of two enumerations: equal when both finished, and
   a budget-cut enumeration's set within a finished one's (Fig. 7's
   switch placements multiply its paths, so it exhausts the path budget
   on most programs with a loop and on some straight-line ones). *)
let same_completed a b =
  match (a.o_traces_complete, b.o_traces_complete) with
  | true, true -> Explore.TraceSet.equal a.o_completed b.o_completed
  | false, true -> Explore.TraceSet.subset a.o_completed b.o_completed
  | true, false -> Explore.TraceSet.subset b.o_completed a.o_completed
  | false, false -> true

let test_fig7_matches_selection () =
  List.iter
    (fun (name, p) ->
      let f, s = fig7_and_selection (load p) in
      (* on the corpus every completed trace is found within the budget,
         including lock-counter's, whose spin lock cuts both enumerations *)
      check tbool (name ^ ": same completed traces") true
        (Explore.TraceSet.equal f.o_completed s.o_completed);
      check tbool (name ^ ": same abort reachability") f.o_abort s.o_abort;
      check tbool (name ^ ": same DRF verdict") f.o_drf s.o_drf)
    (trace_corpus ())

(* ------------------------------------------------------------------ *)
(* Naive trace enumeration against the path-per-visit reference        *)
(* ------------------------------------------------------------------ *)

module Trace = Cas_mc.Trace

let test_trace_key_injective () =
  let pairs =
    [
      ([ Event.Out "a),out(b" ], [ Event.Out "a"; Event.Out "b" ]);
      ([ Event.Out "a\\,out(b" ], [ Event.Out "a\\"; Event.Out "b" ]);
    ]
  in
  List.iter
    (fun (x, y) ->
      let x = (x, Trace.SDone) and y = (y, Trace.SDone) in
      check tbool
        (Fmt.str "%a and %a have distinct keys" Trace.pp x Trace.pp y)
        true
        (Trace.key x <> Trace.key y);
      check tint "a set holds both" 2
        Trace.Set.(cardinal (add x (add y empty))))
    pairs;
  (* the languages emit only [Print]: those keys, and so the order of
     every printed trace set, are what they were before the escaping *)
  check Alcotest.string "print-only key" "print(0),print(-1),$C"
    (Trace.key ([ Event.Print 0; Event.Print (-1) ], Trace.SCut));
  check Alcotest.string "plain out key" "out(x),$A"
    (Trace.key ([ Event.Out "x" ], Trace.SAbort))

(* One trie cell per event prefix, one bit per status ended there. *)
let test_trie_to_set () =
  let root = Trace.Trie.create () in
  let p0 = Trace.Trie.child root (Event.Print 0) in
  Trace.Trie.mark p0 Trace.SCut;
  Trace.Trie.mark (Trace.Trie.child p0 (Event.Print 1)) Trace.SDone;
  Trace.Trie.mark (Trace.Trie.child root (Event.Print 0)) Trace.SDone;
  Trace.Trie.mark (Trace.Trie.child p0 (Event.Print 1)) Trace.SDone;
  Trace.Trie.mark root Trace.SAbort;
  let expected =
    [
      ([], Trace.SAbort);
      ([ Event.Print 0 ], Trace.SDone);
      ([ Event.Print 0 ], Trace.SCut);
      ([ Event.Print 0; Event.Print 1 ], Trace.SDone);
    ]
  in
  let set = List.fold_left (fun s t -> Trace.Set.add t s) Trace.Set.empty in
  check tbool "trie holds the marked traces" true
    (Trace.Set.elements (Trace.Trie.to_set root)
    = Trace.Set.elements (set expected))

(* The enumerator [Cas_mc.Naive.traces] replaced, kept as its oracle: a
   depth-first walk of the schedule path tree that steps a world again
   on every visit, keeps the keys of the current path in a persistent
   set and adds a trace to the set at every leaf. [r_visits] counts its
   [trans] calls. *)
type reference = {
  r_result : Trace.result;
  r_transitions : int;
  r_abort : bool;
  r_visits : int;
}

let reference_traces ?(max_steps = 4000) ?(max_paths = 200_000)
    (sys : 'w Cas_mc.Mcsys.t) (initials : 'w list) : reference =
  let module SSet = Set.Make (String) in
  let acc = ref Trace.Set.empty in
  let paths = ref 0 and transitions = ref 0 and visits = ref 0 in
  let abort = ref false and complete = ref true in
  let emit tr = acc := Trace.Set.add tr !acc in
  let rec go w on_path events budget =
    if !paths > max_paths then complete := false
    else if budget = 0 then begin
      complete := false;
      emit (List.rev events, Trace.SCut)
    end
    else if sys.Cas_mc.Mcsys.all_done w then
      emit (List.rev events, Trace.SDone)
    else
      let fp = sys.Cas_mc.Mcsys.fingerprint w in
      if SSet.mem fp on_path then emit (List.rev events, Trace.SCut)
      else begin
        incr visits;
        let succs = sys.Cas_mc.Mcsys.trans w in
        if succs = [] then emit (List.rev events, Trace.SCut)
        else
          List.iter
            (fun (tr : 'w Cas_mc.Mcsys.trans) ->
              incr paths;
              incr transitions;
              match tr.Cas_mc.Mcsys.target with
              | Cas_mc.Mcsys.Abort ->
                abort := true;
                emit (List.rev events, Trace.SAbort)
              | Cas_mc.Mcsys.Next w' ->
                let events' =
                  match tr.Cas_mc.Mcsys.label with
                  | Cas_mc.Mcsys.Levt e -> e :: events
                  | Cas_mc.Mcsys.Ltau | Cas_mc.Mcsys.Lsw -> events
                in
                go w' (SSet.add fp on_path) events' (budget - 1))
            succs
      end
  in
  List.iter (fun w -> go w SSet.empty [] max_steps) initials;
  {
    r_result = { Trace.traces = !acc; complete = !complete };
    r_transitions = !transitions;
    r_abort = !abort;
    r_visits = !visits;
  }

(* The observables on which [Naive.traces] and the reference differ
   (none, when they agree). The reference's visits are the naive
   engine's stepped worlds plus the visits that reused one. *)
let reference_differences ?max_steps ?max_paths sys initials =
  let r = reference_traces ?max_steps ?max_paths sys initials in
  let t, st = Cas_mc.Naive.traces ?max_steps ?max_paths sys initials in
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      ( "traces",
        Trace.Set.elements t.Trace.traces
        = Trace.Set.elements r.r_result.Trace.traces );
      ("complete", t.Trace.complete = r.r_result.Trace.complete);
      ("transitions", st.Cas_mc.Stats.transitions = r.r_transitions);
      ("abort_reachable", st.Cas_mc.Stats.abort_reachable = r.r_abort);
      ("truncated", st.Cas_mc.Stats.truncated = not r.r_result.Trace.complete);
      ( "worlds + store_hits",
        st.Cas_mc.Stats.worlds + st.Cas_mc.Stats.store_hits = r.r_visits );
    ]

let compiled_counter () = Cas_compiler.Driver.compile (Corpus.counter ())

let tso_world modules entries =
  match Cas_tso.Tso.load modules entries with
  | Error e -> Alcotest.failf "TSO load: %a" World.pp_load_error e
  | Ok w -> w

(* The compiled corpus on the x86-TSO machine, against each TTAS lock. *)
let tso_corpus () =
  let racy = Cas_compiler.Driver.compile (Corpus.racy_counter ()) in
  let writer = Cas_compiler.Driver.compile (Corpus.racy_writer ()) in
  let reader = Cas_compiler.Driver.compile (Corpus.racy_reader ()) in
  List.concat_map
    (fun (pi_name, pi) ->
      List.map
        (fun (name, modules, entries) ->
          (name ^ "/" ^ pi_name, tso_world (modules @ [ pi ]) entries))
        [
          ("lock-counter", [ compiled_counter () ], [ "inc"; "inc" ]);
          ("racy", [ racy ], [ "inc"; "inc" ]);
          ("observer", [ writer; reader ], [ "writer"; "reader" ]);
        ])
    [
      ("pi_lock", Cas_tso.Locks.pi_lock);
      ("pi_lock_fenced", Cas_tso.Locks.pi_lock_fenced);
    ]

(* [sys] with its [trans] calls counted. *)
let counting (sys : 'w Cas_mc.Mcsys.t) =
  let calls = ref 0 in
  ( {
      sys with
      Cas_mc.Mcsys.trans =
        (fun w ->
          incr calls;
          sys.Cas_mc.Mcsys.trans w);
    },
    calls )

(* Each distinct world is stepped once, and [Stats.worlds] says how
   many were. *)
let test_naive_steps_each_world_once () =
  let one name sys initials =
    let sys, calls = counting sys in
    let _, st = Cas_mc.Naive.traces sys initials in
    check tint (name ^ ": trans calls = worlds") !calls st.Cas_mc.Stats.worlds;
    check tbool (name ^ ": some world stepped") true (!calls > 0)
  in
  List.iter
    (fun (name, p) -> one ("sc " ^ name) Engine.selection_system [ load p ])
    (trace_corpus ());
  List.iter
    (fun (name, w) -> one ("tso " ^ name) Cas_tso.Tso.mc_system [ w ])
    (tso_corpus ())

let test_naive_matches_reference () =
  let same name sys initials =
    check (Alcotest.list Alcotest.string) name []
      (reference_differences sys initials)
  in
  List.iter
    (fun (name, p) ->
      let w = load p in
      same ("selection " ^ name) Engine.selection_system [ w ];
      same ("np " ^ name) Engine.np_system (Gsem.initials w))
    (trace_corpus ());
  List.iter
    (fun (name, w) -> same ("tso " ^ name) Cas_tso.Tso.mc_system [ w ])
    (tso_corpus ())

(* Spin-loop cycles and budget cut-offs, where a memo would diverge
   first: every combination of small budgets on the TSO lock counter. *)
let test_naive_matches_reference_at_budgets () =
  let w =
    tso_world [ compiled_counter (); Cas_tso.Locks.pi_lock ] [ "inc"; "inc" ]
  in
  List.iter
    (fun max_paths ->
      List.iter
        (fun max_steps ->
          check
            (Alcotest.list Alcotest.string)
            (Fmt.str "max_paths=%d max_steps=%d" max_paths max_steps)
            []
            (reference_differences ~max_steps ~max_paths
               Cas_tso.Tso.mc_system [ w ]))
        [ 1; 2; 5; 50 ])
    [ 0; 1; 2; 3; 10; 100 ]

(* ------------------------------------------------------------------ *)
(* DPOR against the engine it replaced                                 *)
(* ------------------------------------------------------------------ *)

(* [Dpor_reference] is the engine before a world's node kept resolved
   edges: each visit keyed its world, probed the table, added the key
   to a string set of the path and created a frame mutex, and each leaf
   built and keyed its trace. The current engine must explore the same
   tree in the same order, so with one job both agree on the trace
   result, on every [Stats] field but [wall_ns] and on the [on_world]
   calls: the multiset of (world key, transition count). *)
let dpor_differences ?(collect = true) ?(max_worlds = 200_000)
    ?(max_depth = 4000) ?(max_paths = 200_000) (sys : 'w Cas_mc.Mcsys.t)
    initials =
  let calls () =
    let tbl = Hashtbl.create 64 in
    let on_world w trans =
      let k = (sys.Cas_mc.Mcsys.fingerprint w, List.length trans) in
      let seen = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (seen + 1)
    in
    (tbl, on_world)
  in
  let multiset tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl)) in
  let r_calls, r_on_world = calls () and n_calls, n_on_world = calls () in
  let r, rst =
    Dpor_reference.run ~collect
      ~cfg:{ Dpor_reference.max_worlds; max_depth; max_paths }
      sys initials ~on_world:r_on_world
  in
  let n, nst =
    Cas_mc.Dpor.run ~collect
      ~cfg:{ Cas_mc.Dpor.max_worlds; max_depth; max_paths }
      sys initials ~on_world:n_on_world
  in
  let open Cas_mc.Stats in
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      ( "traces",
        Trace.Set.elements r.Trace.traces = Trace.Set.elements n.Trace.traces );
      ("complete", r.Trace.complete = n.Trace.complete);
      ("engine", rst.engine = nst.engine);
      ("worlds", rst.worlds = nst.worlds);
      ("transitions", rst.transitions = nst.transitions);
      ("sleep_prunings", rst.sleep_prunings = nst.sleep_prunings);
      ("backtracks", rst.backtracks = nst.backtracks);
      ("steals", rst.steals = nst.steals);
      ("store_hits", rst.store_hits = nst.store_hits);
      ("truncated", rst.truncated = nst.truncated);
      ("abort_reachable", rst.abort_reachable = nst.abort_reachable);
      ("on_world", multiset r_calls = multiset n_calls);
    ]

let same_as_reference name differences =
  check (Alcotest.list Alcotest.string) name [] differences

let dpor_corpus () =
  drf_corpus ()
  @ [ ("lock-counter-3", lock_counter_3_prog ()); ("prints-3", prints_prog 3) ]

let test_dpor_matches_reference () =
  List.iter
    (fun (name, p) ->
      let w = load p in
      List.iter
        (fun collect ->
          same_as_reference
            (Fmt.str "%s (collect=%b)" name collect)
            (dpor_differences ~collect Engine.selection_system [ w ]))
        [ true; false ])
    (dpor_corpus ());
  List.iter
    (fun (name, w) ->
      same_as_reference ("tso " ^ name)
        (dpor_differences ~max_depth:3000 ~max_paths:10_000
           Cas_tso.Tso.mc_system [ w ]))
    (tso_corpus ())

(* Cycle cuts, depth cuts, rescues and the path budget: every
   combination of budgets on the TSO lock counter, against each TTAS
   lock, from one step and no path up to casbench's Lemma 16 bounds. *)
let test_dpor_matches_reference_at_budgets () =
  List.iter
    (fun (pi_name, pi) ->
      let w = tso_world [ compiled_counter (); pi ] [ "inc"; "inc" ] in
      List.iter
        (fun max_paths ->
          List.iter
            (fun max_depth ->
              same_as_reference
                (Fmt.str "%s max_steps=%d max_paths=%d" pi_name max_depth
                   max_paths)
                (dpor_differences ~max_depth ~max_paths Cas_tso.Tso.mc_system
                   [ w ]))
            [ 1; 2; 5; 50; 3000 ])
        [ 0; 1; 2; 3; 10; 100; 10_000 ])
    [
      ("pi_lock", Cas_tso.Locks.pi_lock);
      ("pi_lock_fenced", Cas_tso.Locks.pi_lock_fenced);
    ]

(* A world budget the exploration outgrows: the full table refuses
   worlds, which are stepped at every visit and never kept in an edge. *)
let test_dpor_matches_reference_when_full () =
  let counter =
    tso_world [ compiled_counter (); Cas_tso.Locks.pi_lock ] [ "inc"; "inc" ]
  in
  List.iter
    (fun max_worlds ->
      List.iter
        (fun collect ->
          List.iter
            (fun (name, p) ->
              same_as_reference
                (Fmt.str "%s max_worlds=%d (collect=%b)" name max_worlds
                   collect)
                (dpor_differences ~collect ~max_worlds Engine.selection_system
                   [ load p ]))
            (dpor_corpus ());
          same_as_reference
            (Fmt.str "tso counter max_worlds=%d (collect=%b)" max_worlds
               collect)
            (dpor_differences ~collect ~max_worlds ~max_depth:3000
               ~max_paths:10_000 Cas_tso.Tso.mc_system [ counter ]))
        [ false; true ])
    [ 1; 2; 3; 10; 50 ]

(* ------------------------------------------------------------------ *)
(* Reduction: the acceptance criterion                                 *)
(* ------------------------------------------------------------------ *)

let test_dpor_reduction () =
  let corpus =
    [
      ("lock-counter", Corpus.lock_counter_prog (), true);
      ("lock-counter-3", lock_counter_3_prog (), true);
      ("producer-consumer", producer_consumer_prog (), true);
      ("prints-2", prints_prog 2, false);
      ("prints-3", prints_prog 3, false);
    ]
  in
  let total_naive = ref 0 and total_dpor = ref 0 in
  List.iter
    (fun (name, p, expect_5x) ->
      let w = load p in
      let worlds e =
        (Engine.explore ~engine:e w ~visit:(fun _ -> ())).Cas_mc.Stats.worlds
      in
      let n = worlds Engine.Naive and d = worlds Engine.Dpor in
      total_naive := !total_naive + n;
      total_dpor := !total_dpor + d;
      check tbool (Fmt.str "%s: dpor explores fewer worlds" name) true (d < n);
      (* the prints programs are exempt: their observable prints are
         mutually dependent by construction, so DPOR can only prune
         ~1.6x (prints-2) and ~2.3x (prints-3) there *)
      if expect_5x then
        check tbool (Fmt.str "%s: >=5x fewer worlds" name) true (5 * d <= n))
    corpus;
  check tbool "corpus aggregate >=5x reduction" true
    (5 * !total_dpor <= !total_naive)

let key_name = function
  | Cas_mc.Mcsys.Hash -> "hash"
  | Cas_mc.Mcsys.Fingerprint -> "fingerprint"

(* Distinct-world counts pinned per engine. The naive values count the
   selection view's reachable worlds (the fixed-width keys must induce
   exactly the same state partition as the fingerprint strings); the
   dpor values were re-pinned when the engine moved from persistent/sleep
   sets to source-DPOR with wakeup sequences — every value strictly
   dropped or held (259→161, 2328→362, 118→94; the rescue coverage
   filter prunes redundant spin-retry subtrees), and dpor-par must
   reproduce them exactly on these searches, whatever the steals (on TSO
   trace enumeration it need not: see [prop_dpor_par_traces_tso]). Each
   count holds under both state keys
   ([Engine.selection Hash] and [Fingerprint], as [--paranoid-fp]
   explores), and so do the TSO counter's. *)
let test_world_counts_pinned () =
  let corpus =
    [
      ("lock-counter", Corpus.lock_counter_prog (), 1052, 161);
      ("lock-counter-3", lock_counter_3_prog (), 26270, 362);
      ("prints-2", prints_prog 2, 36, 23);
      ("prints-3", prints_prog 3, 216, 94);
    ]
  in
  let worlds sys e w =
    (Cas_mc.Engine.reachable ~engine:e sys [ w ] ~visit:ignore)
      .Cas_mc.Stats.worlds
  in
  List.iter
    (fun keys ->
      List.iter
        (fun (name, p, exp_naive, exp_dpor) ->
          let w = load p in
          let worlds e = worlds (Engine.selection keys) e w in
          let name = Fmt.str "%s (%s keys)" name (key_name keys) in
          check tint (name ^ ": naive worlds") exp_naive (worlds Engine.Naive);
          check tint (name ^ ": dpor worlds") exp_dpor (worlds Engine.Dpor);
          check tint
            (name ^ ": dpor-par worlds")
            exp_dpor
            (worlds Engine.Dpor_par))
        corpus)
    [ Cas_mc.Mcsys.Hash; Cas_mc.Mcsys.Fingerprint ];
  (* the TSO counter against the TTAS lock, under either keys *)
  let w =
    tso_world [ compiled_counter (); Cas_tso.Locks.pi_lock ] [ "inc"; "inc" ]
  in
  List.iter
    (fun (e, expected) ->
      List.iter
        (fun keys ->
          check tint
            (Fmt.str "tso counter (%s keys): %a worlds" (key_name keys)
               Engine.pp e)
            expected
            (worlds (Cas_tso.Tso.system keys) e w))
        [ Cas_mc.Mcsys.Hash; Cas_mc.Mcsys.Fingerprint ])
    [ (Engine.Naive, 1723); (Engine.Dpor, 305) ]

(* Only Clight, CImp and x86 stream their cores by hand; a world of
   another IR is keyed by its cores' printed text ([Lang.hash_printed]).
   The lock counter at the last stage of each mid-pipeline language,
   against γ_lock, is DRF under naive and dpor, with the same world
   count under hash and fingerprint keys. *)
let test_mid_pipeline_worlds () =
  let a = Cas_compiler.Driver.compile_artifacts (Corpus.counter ()) in
  let open Cas_compiler.Driver in
  let stages =
    [
      ("C#minor", Lang.Mod (Csharpminor.lang, a.csharpminor), 974, 156);
      ("Cminor", Lang.Mod (Cminor.lang, a.cminor), 974, 156);
      ("RTL", Lang.Mod (Rtl.lang, a.rtl_deadcode), 815, 147);
      ("LTL", Lang.Mod (Ltl.lang, a.ltl_tunneled), 987, 155);
      ("Linear", Lang.Mod (Linearl.lang, a.linear_clean), 987, 155);
      ("Mach", Lang.Mod (Machl.lang, a.mach), 1065, 160);
    ]
  in
  List.iter
    (fun (stage, m, exp_naive, exp_dpor) ->
      let w =
        load
          (Lang.prog
             [ m; Lang.Mod (Cimp.lang, Corpus.gamma_lock ()) ]
             [ "inc"; "inc" ])
      in
      List.iter
        (fun keys ->
          List.iter
            (fun (engine, expected) ->
              let r = Race.drf ~engine ~keys w in
              let name =
                Fmt.str "%s (%s keys, %a)" stage (key_name keys) Engine.pp
                  engine
              in
              check tbool (name ^ ": DRF") true r.Race.drf;
              check tint (name ^ ": worlds") expected
                r.Race.engine_stats.Cas_mc.Stats.worlds)
            [ (Engine.Naive, exp_naive); (Engine.Dpor, exp_dpor) ])
        [ Cas_mc.Mcsys.Hash; Cas_mc.Mcsys.Fingerprint ])
    stages

(* Naive trace enumeration's transitions, trace count and completeness,
   at the values of the path-per-visit enumerator it replaced: the state
   table and the trie must walk the same path tree. Lock-counter under
   SC at the default budgets, and the TSO counter at casbench's Lemma 16
   bounds (3,000 steps, 10,000 paths), against each TTAS lock. *)
let test_naive_trace_counters_pinned () =
  let pinned name (r, st) (transitions, count, complete) =
    check tint (name ^ ": transitions") transitions st.Cas_mc.Stats.transitions;
    check tint (name ^ ": traces") count
      (Trace.Set.cardinal r.Trace.traces);
    check tbool (name ^ ": complete") complete r.Trace.complete
  in
  pinned "lock-counter sc"
    (Engine.traces (load (Corpus.lock_counter_prog ())))
    (200026, 2, false);
  List.iter
    (fun (name, pi, expected) ->
      let w = tso_world [ compiled_counter (); pi ] [ "inc"; "inc" ] in
      pinned name
        (Cas_tso.Tso.mc_traces ~max_steps:3000 ~max_paths:10_000 w)
        expected)
    [
      ("tso counter/pi_lock", Cas_tso.Locks.pi_lock, (10049, 2, false));
      ( "tso counter/pi_lock_fenced",
        Cas_tso.Locks.pi_lock_fenced,
        (10052, 3, false) );
    ]

(* Dpor trace enumeration's work counters on the TSO counter at
   casbench's Lemma 16 bounds, against each TTAS lock: transitions,
   worlds, wakeup insertions, store hits, trace count and completeness,
   at the values of the engine that keyed and looked up each world at
   every visit. Resolved edges are bookkeeping: they must walk the same
   tree, and a revisit through one counts as the store hit it was. *)
let test_dpor_trace_counters_pinned () =
  List.iter
    (fun (name, pi, expected) ->
      let transitions, worlds, backtracks, store_hits, count, complete =
        expected
      in
      let w = tso_world [ compiled_counter (); pi ] [ "inc"; "inc" ] in
      let r, st =
        Cas_tso.Tso.mc_traces ~engine:Engine.Dpor ~max_steps:3000
          ~max_paths:10_000 w
      in
      check tint (name ^ ": transitions") transitions
        st.Cas_mc.Stats.transitions;
      check tint (name ^ ": worlds") worlds st.Cas_mc.Stats.worlds;
      check tint (name ^ ": wakeup insertions") backtracks
        st.Cas_mc.Stats.backtracks;
      check tint (name ^ ": store hits") store_hits st.Cas_mc.Stats.store_hits;
      check tint (name ^ ": traces") count (Trace.Set.cardinal r.Trace.traces);
      check tbool (name ^ ": complete") complete r.Trace.complete)
    [
      ( "tso counter/pi_lock",
        Cas_tso.Locks.pi_lock,
        (10007, 210, 117, 9791, 3, false) );
      ( "tso counter/pi_lock_fenced",
        Cas_tso.Locks.pi_lock_fenced,
        (5770, 196, 97, 5575, 3, true) );
    ]

(* The sequential dpor engine's work counters on the corpus. The state
   table, the transitions shared with the visitor, the path summaries
   and the resolved edges are bookkeeping: the engine must explore the
   same tree as without them — every transition, wakeup insertion and
   store hit, a revisit through a resolved edge counting as the hit its
   table lookup was — so these values come from the engine that had
   none of the four. *)
let test_dpor_counters_pinned () =
  let corpus =
    [
      ("lock-counter", Corpus.lock_counter_prog (), (232, 5, 72));
      ("lock-counter-3", lock_counter_3_prog (), (872, 21, 511));
      ("producer-consumer", producer_consumer_prog (), (90, 0, 1));
      ("prints-2", prints_prog 2, (43, 5, 21));
      ("prints-3", prints_prog 3, (660, 89, 567));
      ("racy", Corpus.racy_prog (), (86, 7, 16));
      ("observer", Corpus.observer_prog (), (29, 2, 0));
    ]
  in
  List.iter
    (fun (name, p, (transitions, backtracks, store_hits)) ->
      let st = Engine.explore ~engine:Engine.Dpor (load p) ~visit:ignore in
      check tint (name ^ ": transitions") transitions
        st.Cas_mc.Stats.transitions;
      check tint (name ^ ": wakeup insertions") backtracks
        st.Cas_mc.Stats.backtracks;
      check tint (name ^ ": store hits") store_hits st.Cas_mc.Stats.store_hits;
      check tint (name ^ ": sleep prunings") 0
        st.Cas_mc.Stats.sleep_prunings)
    corpus

(* Source-set-filtered wakeup insertion must never steer exploration
   into a sleep-set wall: on the whole corpus, sleep-set-blocked
   explorations (the old engine's pure waste, [Stats.sleep_prunings])
   must be exactly 0 — for the sequential engine and under stealing at
   every domain count. This is the optimality acceptance gate. *)
let test_no_sleep_blocked () =
  let corpus =
    [
      ("lock-counter", Corpus.lock_counter_prog ());
      ("lock-counter-3", lock_counter_3_prog ());
      ("producer-consumer", producer_consumer_prog ());
      ("prints-2", prints_prog 2);
      ("prints-3", prints_prog 3);
      ("racy", Corpus.racy_prog ());
      ("observer", Corpus.observer_prog ());
    ]
  in
  List.iter
    (fun (name, p) ->
      let w = load p in
      let stats engine jobs =
        Engine.explore ~engine ~jobs w ~visit:(fun _ -> ())
      in
      let seq = stats Engine.Dpor 1 in
      check tint
        (name ^ ": no sleep-set-blocked exploration (dpor)")
        0 seq.Cas_mc.Stats.sleep_prunings;
      List.iter
        (fun jobs ->
          let par = stats Engine.Dpor_par jobs in
          check tint
            (Fmt.str "%s: no sleep-set-blocked exploration (jobs=%d)" name
               jobs)
            0 par.Cas_mc.Stats.sleep_prunings;
          check tint
            (Fmt.str "%s: world count steal-invariant (jobs=%d)" name jobs)
            seq.Cas_mc.Stats.worlds par.Cas_mc.Stats.worlds)
        [ 2; 4 ])
    corpus

(* A root with ≤1 enabled thread has nothing to reorder: dpor-par must
   short-circuit to the sequential engine (no pool, engine string
   reports "dpor") instead of spinning up idle domains. *)
let test_par_short_circuit () =
  let w = load (prints_prog 1) in
  let st = Engine.explore ~engine:Engine.Dpor_par ~jobs:4 w ~visit:(fun _ -> ()) in
  check Alcotest.string "1-thread root runs sequential dpor" "dpor"
    st.Cas_mc.Stats.engine;
  let w2 = load (prints_prog 2) in
  let st2 =
    Engine.explore ~engine:Engine.Dpor_par ~jobs:4 w2 ~visit:(fun _ -> ())
  in
  check Alcotest.string "2-thread root keeps the pool" "dpor-par(4)"
    st2.Cas_mc.Stats.engine

(* ------------------------------------------------------------------ *)
(* Random concurrent programs: engines always agree                    *)
(* ------------------------------------------------------------------ *)

(* Two threads of tiny straight-line code over two shared globals, with
   observable prints: small enough for the naive oracle, shaped so both
   racy and race-free (disjoint-variable) schedules are generated. *)

open QCheck.Gen

let gen_expr = oneof [ map (fun c -> Clight.Econst c) (int_range 0 5);
                       map (fun g -> Clight.Eglob g) (oneofl [ "g0"; "g1" ]) ]

let gen_stmt =
  oneof
    [
      map2
        (fun g e -> Clight.Sassign (Clight.Lglob g, e))
        (oneofl [ "g0"; "g1" ])
        gen_expr;
      map (fun e -> Clight.Scall (None, "print", [ e ])) gen_expr;
    ]

let gen_body =
  let* n = int_range 1 3 in
  let* stmts = list_repeat n gen_stmt in
  return
    (List.fold_right (fun s acc -> Clight.Sseq (s, acc)) stmts Clight.Sskip)

let gen_threads : Clight.program QCheck.Gen.t =
  let* b1 = gen_body in
  let* b2 = gen_body in
  let func name body =
    { Clight.fname = name; fparams = []; fvars = []; fbody = body }
  in
  return
    {
      Clight.globals =
        [ Genv.gvar ~init:[ Genv.Iint 0 ] "g0" 1;
          Genv.gvar ~init:[ Genv.Iint 0 ] "g1" 1 ];
      funcs = [ func "t0" b1; func "t1" b2 ];
    }

let print_threads (p : Clight.program) =
  Fmt.str "%a"
    Fmt.(
      list ~sep:cut (fun ppf f ->
          Fmt.pf ppf "%s() { %a }" f.Clight.fname Clight.pp_stmt f.Clight.fbody))
    p.Clight.funcs

let arb_threads = QCheck.make ~print:print_threads gen_threads

let prop_engines_agree =
  QCheck.Test.make ~name:"engines agree on random 2-thread programs"
    ~count:100 arb_threads (fun p ->
      let prog = Lang.prog [ Lang.Mod (Clight.lang, p) ] [ "t0"; "t1" ] in
      match World.load prog ~args:[] with
      | Error _ -> QCheck.assume_fail ()
      | Ok w ->
        let drf e = (Race.drf ~engine:e ~jobs:2 w).Race.drf in
        let traces e = fst (Engine.traces ~engine:e ~jobs:2 w) in
        let n = traces Engine.Naive in
        let d = traces Engine.Dpor in
        let dp = traces Engine.Dpor_par in
        (* DRF verdicts are world-based, immune to the oracle's path
           budget; trace sets are compared as in [test_trace_sets_agree]:
           the bounded oracle under-approximates, so subset always,
           equality when it completed. *)
        drf Engine.Naive = drf Engine.Dpor
        && drf Engine.Naive = drf Engine.Dpor_par
        && d.Explore.complete && dp.Explore.complete
        && Explore.TraceSet.equal (completed d) (completed dp)
        && Explore.TraceSet.subset (completed n) (completed d)
        && (not n.Explore.complete
           || Explore.TraceSet.equal (completed n) (completed d)
              && has_abort n = has_abort d))

let prop_naive_matches_reference =
  QCheck.Test.make
    ~name:"naive traces match the reference on random 2-thread programs"
    ~count:100 arb_threads (fun p ->
      let prog = Lang.prog [ Lang.Mod (Clight.lang, p) ] [ "t0"; "t1" ] in
      match World.load prog ~args:[] with
      | Error _ -> QCheck.assume_fail ()
      | Ok w ->
        reference_differences Engine.selection_system [ w ] = []
        && reference_differences Engine.np_system (Gsem.initials w) = [])

let prop_dpor_matches_reference =
  QCheck.Test.make
    ~name:"dpor matches the reference on random 2-thread programs" ~count:100
    arb_threads (fun p ->
      let prog = Lang.prog [ Lang.Mod (Clight.lang, p) ] [ "t0"; "t1" ] in
      match World.load prog ~args:[] with
      | Error _ -> QCheck.assume_fail ()
      | Ok w ->
        List.for_all
          (fun collect ->
            dpor_differences ~collect Engine.selection_system [ w ] = [])
          [ true; false ])

(* Clients of the fuzzer's generator at size 3, with and without the
   lock, as casbench's tso-lemma16 pool draws them (two threads): a seed
   and a lock flag pick the program, the first of that shape in the
   seed's stream. *)
let gen_tso_client ~threads : Cas_fuzz.Gen.t QCheck.Gen.t =
  let* seed = int_bound 1_000_000 in
  let* lock = bool in
  let master = Rng.make ~seed in
  let rec draw () =
    let g = Cas_fuzz.Gen.clight (Rng.split master) ~size:3 in
    if List.length g.g_entries = threads && g.g_with_lock = lock then g
    else draw ()
  in
  return (draw ())

let arb_tso_client ~threads =
  QCheck.make
    ~print:(fun (g : Cas_fuzz.Gen.t) -> g.g_source)
    (gen_tso_client ~threads)

(* The client compiled and loaded on the x86-TSO machine against the
   TTAS lock, as every Lemma 16 check of casbench loads it. *)
let tso_client (g : Cas_fuzz.Gen.t) =
  let asm = Cas_compiler.Driver.compile (Parse.clight g.g_source) in
  Result.to_option (Cas_tso.Tso.load [ asm; Cas_tso.Locks.pi_lock ] g.g_entries)

let tso_matches_reference g =
  match tso_client g with
  | None -> QCheck.assume_fail ()
  | Some w ->
    dpor_differences ~max_depth:3000 ~max_paths:10_000 Cas_tso.Tso.mc_system
      [ w ]
    = []

let prop_dpor_matches_reference_tso =
  QCheck.Test.make ~name:"dpor matches the reference on random TSO clients"
    ~count:300 (arb_tso_client ~threads:2) tso_matches_reference

(* With three threads a wakeup sequence can hold steps of two threads,
   so only its head is sure to be a weak initial: an engine that takes
   any of its threads for one explores differently here, and passes
   with two threads. *)
let prop_dpor_matches_reference_tso3 =
  QCheck.Test.make
    ~name:"dpor matches the reference on random three-thread TSO clients"
    ~count:100 (arb_tso_client ~threads:3) tso_matches_reference

(* Stealing moves branches between workers, each with its own on-path
   marks. Where sequential dpor completes, dpor-par must find the same
   traces at every jobs count. The world count is not compared: on TSO
   it depends on the steal schedule (the dpor-par item of ROADMAP.md). *)
let prop_dpor_par_traces_tso =
  QCheck.Test.make ~name:"dpor-par traces match dpor on random TSO clients"
    ~count:150 (arb_tso_client ~threads:2) (fun g ->
      match tso_client g with
      | None -> QCheck.assume_fail ()
      | Some w ->
        let traces engine jobs =
          fst
            (Cas_tso.Tso.mc_traces ~engine ~jobs ~max_steps:3000
               ~max_paths:200_000 w)
        in
        let seq = traces Engine.Dpor 1 in
        if not seq.Explore.complete then QCheck.assume_fail ()
        else
          List.for_all
            (fun jobs ->
              let par = traces Engine.Dpor_par jobs in
              par.Explore.complete
              && Explore.TraceSet.equal seq.Explore.traces par.Explore.traces)
            [ 2; 4 ])

let prop_fig7_matches_selection =
  QCheck.Test.make
    ~name:"Fig. 7 matches the selection view on random 2-thread programs"
    ~count:100 arb_threads (fun p ->
      let prog = Lang.prog [ Lang.Mod (Clight.lang, p) ] [ "t0"; "t1" ] in
      match World.load prog ~args:[] with
      | Error _ -> QCheck.assume_fail ()
      | Ok w ->
        let f, s = fig7_and_selection w in
        same_completed f s && f.o_abort = s.o_abort && f.o_drf = s.o_drf)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mc"
    [
      ( "units",
        [
          Alcotest.test_case "store accounting" `Quick test_store_accounting;
          Alcotest.test_case "store slots survive table growth" `Quick
            test_store_slots_survive_growth;
          Alcotest.test_case "store full flag under parallel hammering"
            `Quick test_store_full_parallel;
          Alcotest.test_case "engine names" `Quick test_engine_names;
          Alcotest.test_case "trace keys are injective" `Quick
            test_trace_key_injective;
          Alcotest.test_case "trie to trace set" `Quick test_trie_to_set;
        ] );
      ( "differential",
        [
          Alcotest.test_case "DRF verdicts agree" `Slow test_drf_verdicts_agree;
          Alcotest.test_case "trace sets agree" `Slow test_trace_sets_agree;
          Alcotest.test_case "double unlock aborts" `Quick
            test_double_unlock_aborts;
          Alcotest.test_case "full sets on selection view" `Quick
            test_full_sets_on_selection_view;
          Alcotest.test_case "Fig. 7 matches the selection view" `Slow
            test_fig7_matches_selection;
          Alcotest.test_case "jobs-insensitive" `Quick test_jobs_insensitive;
          Alcotest.test_case "naive steps each world once" `Quick
            test_naive_steps_each_world_once;
          Alcotest.test_case "naive traces match the reference" `Slow
            test_naive_matches_reference;
          Alcotest.test_case "naive traces match the reference at budgets"
            `Quick test_naive_matches_reference_at_budgets;
          Alcotest.test_case "dpor matches the reference" `Quick
            test_dpor_matches_reference;
          Alcotest.test_case "dpor matches the reference at budgets" `Quick
            test_dpor_matches_reference_at_budgets;
          Alcotest.test_case "dpor matches the reference when the table fills"
            `Quick test_dpor_matches_reference_when_full;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "dpor >=5x on corpus" `Slow test_dpor_reduction;
          Alcotest.test_case "world counts pinned across key change" `Slow
            test_world_counts_pinned;
          Alcotest.test_case "mid-pipeline worlds under both keys" `Quick
            test_mid_pipeline_worlds;
          Alcotest.test_case "naive trace counters pinned" `Quick
            test_naive_trace_counters_pinned;
          Alcotest.test_case "dpor trace counters pinned" `Quick
            test_dpor_trace_counters_pinned;
          Alcotest.test_case "dpor work counters pinned" `Quick
            test_dpor_counters_pinned;
          Alcotest.test_case "no sleep-set-blocked exploration" `Slow
            test_no_sleep_blocked;
          Alcotest.test_case "dpor-par short-circuits 1-thread roots" `Quick
            test_par_short_circuit;
        ] );
      ( "random",
        (* pinned seed for reproducibility; QCHECK_SEED=n overrides *)
        (let seed =
           match Sys.getenv_opt "QCHECK_SEED" with
           | Some s -> (try int_of_string s with _ -> 0x5ca1ab1e)
           | None -> 0x5ca1ab1e
         in
         List.map
           (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]))
           [
             prop_engines_agree;
             prop_fig7_matches_selection;
             prop_naive_matches_reference;
             prop_dpor_matches_reference;
             prop_dpor_matches_reference_tso;
             prop_dpor_matches_reference_tso3;
             prop_dpor_par_traces_tso;
           ]) );
    ]
