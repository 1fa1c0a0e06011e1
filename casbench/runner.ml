(** One benchmark run: set up a workload for one seed, run its ops in a
    closed loop for the given number of seconds, check every answer, and
    turn what was measured into the end-to-end and per-layer metrics.

    A run traverses its ops in passes — a pool of inputs, or the cascd
    workload's requests — and always completes at least one. Each op
    time is corrected for how slow the shared host ran at that moment,
    raised to the workload's elasticity ({!Speed}); an op's time is the
    median of its corrected times over the passes that ran it, the one
    the clock cut short included, and the timing metrics are the
    throughput and percentiles of those per-op times. Per-layer sums
    cover complete passes only. *)

(* ------------------------------------------------------------------ *)
(* Workloads and metrics                                               *)
(* ------------------------------------------------------------------ *)

type kind =
  | Pool of {
      count : int;  (** generated inputs per pool *)
      ops : golden:Golden.t -> seed:int -> count:int -> Workloads.op array;
    }
  | Service of { count : int  (** requests per pass *) }

type workload = {
  name : string;
  why : string;
  kind : kind;
  elasticity : float;
      (** how the workload's time grows with the host's slowdown as the
          speed kernel measures it: the slope of log time against log
          kernel slowdown over 40 runs (seeds 1–40) on the 2-core shared
          VM the benchmark was defined on, averaged over ops_per_s,
          op_p50_ms and op_p90_ms; see {!Speed} *)
}

let run_seconds = 22

let workloads =
  let open Workloads in
  let drf engine ~golden ~seed ~count = drf_ops ~engine ~golden ~seed ~count in
  [
    {
      name = "build-link";
      why =
        "casc build of generated and corpus modules then a certified \
         single-entry link: parser, 16 passes, simulation checker and \
         certificate-cache writes";
      kind =
        Pool
          {
            count = 1600;
            ops = (fun ~golden:_ ~seed ~count -> build_ops ~seed ~count);
          };
      elasticity = 1.08;
    };
    {
      name = "drf-dpor";
      why =
        "DRF of generated two-thread programs and the concurrent corpus with \
         the dpor engine: wakeups, footprint conflicts, store, state keys and \
         the race predictor";
      kind = Pool { count = 4000; ops = drf Cas_mc.Engine.Dpor };
      elasticity = 1.10;
    };
    {
      name = "drf-naive";
      why =
        "the same programs with the naive engine (casc drf's default, cascd's \
         only one): same semantics, keys, store and predictor without DPOR";
      kind = Pool { count = 4000; ops = drf Cas_mc.Engine.Naive };
      elasticity = 1.34;
    };
    {
      name = "tso-lemma16";
      why =
        "Lemma 16 of generated clients and the lock counter under x86-TSO, \
         naive and dpor: store buffers, trace enumeration and spin-loop cycles";
      kind = Pool { count = 1000; ops = tso_ops };
      elasticity = 1.19;
    };
    {
      name = "cascd-edit";
      why =
        "a casc serve daemon under a Zipf closed loop of repeat and edited \
         certify, drf and compile requests: admission, memo, queue, cache \
         reads, encode and frame writes";
      kind = Service { count = Service.requests_per_pass };
      elasticity = 1.32;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

type metric = {
  m_name : string;
  unit_ : string;
  better : Stats.better;
  bound : float;
}

(** The end-to-end metrics. Every timing bound is the largest
    BENCHMARK.json allows: on the shared 2-core VM the baseline was
    recorded on, identical work ran up to twice as long from one minute
    to the next, which the speed correction removes only in part. Peak
    memory spread by at most 3% across seeds there. *)
let e2e =
  let m m_name unit_ better bound = { m_name; unit_; better; bound } in
  [
    m "setup_s" "s" Stats.Lower 0.25;
    m "ops_per_s" "ops/s" Stats.Higher 0.25;
    m "op_p50_ms" "ms" Stats.Lower 0.25;
    m "op_p90_ms" "ms" Stats.Lower 0.25;
    m "peak_rss_mb" "MB" Stats.Lower 0.10;
  ]

(** Absolute slack under a relative bound, for values so small that the
    clock's granularity dominates their spread. *)
let floor_of = function "setup_s" -> 0.05 | "op_p50_ms" -> 0.02 | _ -> 0.

(** The 16 passes of Fig. 11, as [Driver.compile_unit] names them. *)
let passes =
  [
    "SimplLocals"; "Cshmgen"; "Cminorgen"; "Selection"; "RTLgen"; "Tailcall";
    "Renumber"; "ConstProp"; "CSE"; "Deadcode"; "Allocation"; "Tunneling";
    "Linearize"; "CleanupLabels"; "Stacking"; "Asmgen";
  ]

(** Per-layer metrics, with their units. Times and counters are per op
    (over whole passes); [trace.*], [gc.top_heap_mb], [decided_frac] and
    the [serve.*] gauges are per run. *)
let layers : (string * string) list =
  let per_engine e =
    [
      ("explore." ^ e ^ ".ms", "ms");
      ("explore." ^ e ^ ".worlds", "count");
      ("explore." ^ e ^ ".transitions", "count");
      ("explore." ^ e ^ ".store_hits", "count");
      ("explore." ^ e ^ ".truncated", "count");
      ("race." ^ e ^ ".predict.ms", "ms");
      ("race." ^ e ^ ".predict.calls", "count");
    ]
  in
  let tso e =
    [
      ("tso." ^ e ^ ".tso_traces.ms", "ms");
      ("tso." ^ e ^ ".sc_traces.ms", "ms");
      ("tso." ^ e ^ ".refine.ms", "ms");
      ("tso." ^ e ^ ".incomplete", "count");
      ("tso." ^ e ^ ".transitions", "count");
    ]
  in
  let serve_kinds = List.map Service.kind_name Service.kinds in
  [ ("parse.ms", "ms"); ("parse.kb", "KiB"); ("compile.ms", "ms") ]
  @ List.map (fun p -> ("pass." ^ p ^ ".ms", "ms")) passes
  @ [
      ("compile.asm_instrs", "count");
      ("cache.hits", "count");
      ("cache.misses", "count");
      ("cache.hit_pct", "%");
      ("checker.ms", "ms");
      ("checker.steps", "count");
      ("checker.verdicts", "count");
      ("checker.inconclusive", "count");
      ("objfile.seal.ms", "ms");
      ("objfile.codec.ms", "ms");
      ("objfile.kb", "KiB");
      ("link.resolve.ms", "ms");
      ("link.compose.ms", "ms");
      ("link.checker_steps", "count");
      ("load.ms", "ms");
    ]
  @ per_engine "naive" @ per_engine "dpor"
  @ [
      ("explore.dpor.step.ms", "ms");
      ("explore.dpor.step.calls", "count");
      ("explore.dpor.key.ms", "ms");
      ("explore.dpor.key.calls", "count");
      ("explore.dpor.engine_self.ms", "ms");
      ("explore.dpor.wakeups", "count");
      ("explore.dpor.sleep_blocked", "count");
    ]
  @ tso "naive" @ tso "dpor"
  @ List.map (fun k -> ("serve.rtt." ^ k ^ ".p50_ms", "ms")) serve_kinds
  @ List.map (fun k -> ("serve.exec." ^ k ^ ".ms", "ms")) serve_kinds
  @ [
      ("serve.overhead.p50_ms", "ms");
      ("serve.executed", "count");
      ("serve.coalesced", "count");
      ("serve.memo_hits", "count");
      ("serve.overloaded", "count");
      ("serve.server_p99_ms", "ms");
      ("decided_frac", "fraction");
      ("gc.minor_kwords", "kwords");
      ("gc.promoted_kwords", "kwords");
      ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MB");
      ("trace.ops_per_s", "ops/s");
      ("trace.span_coverage_pct", "%");
    ]

(** The work counters an untraced op records too: deterministic for a
    seed, so [compare] checks them for equality. *)
let work_counters =
  [
    "parse.kb"; "cache.hits"; "cache.misses"; "checker.verdicts";
    "checker.inconclusive"; "objfile.kb"; "link.checker_steps";
    "explore.naive.worlds"; "explore.naive.transitions";
    "explore.naive.truncated"; "explore.dpor.worlds";
    "explore.dpor.transitions"; "explore.dpor.truncated";
    "tso.naive.incomplete"; "tso.dpor.incomplete";
  ]

(* ------------------------------------------------------------------ *)
(* Host class                                                          *)
(* ------------------------------------------------------------------ *)

let read_first_line file =
  match In_channel.with_open_text file In_channel.input_line with
  | Some l -> String.trim l
  | None | (exception Sys_error _) -> "unknown"

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.trim (String.sub l 0 i) = "model name" ->
             Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"

(** What wall-clock numbers are comparable across: core count, OCaml
    version and architecture ([cpu] is informational). *)
let host () : (string * Bjson.t) list =
  [
    ("cores", Bjson.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Bjson.Str Sys.ocaml_version);
    ("arch", Bjson.Str (read_first_line "/proc/sys/kernel/arch"));
    ("cpu", Bjson.Str (cpu_model ()));
  ]

let host_class_keys = [ "cores"; "ocaml"; "arch" ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, for the report *)
}

let note tally label (o : Workloads.outcome) =
  tally.attempted <- tally.attempted + 1;
  match o with
  | Workloads.Failed msg ->
    tally.failed <- tally.failed + 1;
    if List.length tally.failures < 10 then
      tally.failures <- (label ^ ": " ^ msg) :: tally.failures
  | Workloads.Decided | Workloads.Undecided -> ()

let now = Unix.gettimeofday
let sum = Array.fold_left ( +. ) 0.

(** One pass over the ops: when each op started, how long it took
    (seconds, as measured), how many of the ops ran — all but in the
    pass the clock cut short — and, for a complete pass, the speed
    correction the meter applied to it. *)
type pass = {
  starts : float array;
  lats : float array;
  ran : int;
  scale : float;
}

type measured = {
  setup_s : float;
  tally : tally;
  passes : int;
  op_s : float array;
      (** per op, its median time over the passes that ran it, at
          nominal speed *)
  raw_op_s : float array;  (** the same, as measured *)
  slowdown : float;  (** the host's median slowdown over the run *)
  peak_rss_mb : float;
  values : (string * float) list;  (** per-layer values *)
  meter : Meter.t;
}

(** Set-ups per run. A fixed number: the garbage of the set-ups grows the
    heap, which never shrinks, so a number that followed the host's speed
    (as many as fit in a second) moved tso-lemma16's peak memory by a
    fifth from run to run of one seed. *)
let setup_reps = 5

(** Median time of [setup_reps] set-ups at nominal speed. [f] returns
    the set-up's value and a clean-up to run (untimed) before the next
    repetition; the last repetition's value is kept. The reference
    kernel runs between repetitions. *)
let timed_setup ~speed (f : unit -> 'a * (unit -> unit)) : float * 'a =
  let rec go spans =
    Gc.full_major ();
    Speed.sample speed;
    let t0 = now () in
    let v, cleanup = f () in
    let spans = (t0, now ()) :: spans in
    if List.length spans = setup_reps then (spans, v)
    else begin
      cleanup ();
      go spans
    end
  in
  let spans, v = go [] in
  Speed.sample speed;
  let times =
    List.map
      (fun (t0, t1) -> Speed.normalize speed ~at:((t0 +. t1) /. 2.) (t1 -. t0))
      spans
  in
  (Stats.median (Array.of_list times), v)

(** Run [ops] in passes until [seconds] have passed; at least one pass
    completes. Returns every pass, the last one cut short by the clock
    included, how many ops of the first were decided, and [rss ()] read
    when the first ended: peak memory after a fixed amount of work, not
    after as many ops as the host's speed allowed. The meter keeps only
    complete passes, with their times at nominal speed. *)
let run_passes ~speed ~meter ~tally ~seconds ~rss (ops : Workloads.op array)
    : pass list * int * float =
  let n = Array.length ops in
  let passes = ref [] and first_decided = ref 0 and first_rss = ref 0. in
  let deadline = now () +. seconds in
  let finished = ref false in
  while not !finished do
    let starts = Array.make n 0. and lats = Array.make n 0. in
    let decided = ref 0 and t_pass = now () in
    Cas_compiler.Cache.reset_stats ();
    let rec go i =
      if i = n || (!passes <> [] && now () >= deadline) then i
      else begin
        let op = ops.(i) in
        op.Workloads.prepare ();
        let t0 = now () in
        let o =
          try op.Workloads.run meter
          with e -> Workloads.Failed (Printexc.to_string e)
        in
        let t1 = now () in
        starts.(i) <- t0;
        lats.(i) <- t1 -. t0;
        note tally op.Workloads.label o;
        if o = Workloads.Decided then incr decided;
        Speed.tick speed ~busy:(t1 -. t0);
        go (i + 1)
      end
    in
    let ran = go 0 in
    let scale =
      if ran < n then begin
        Meter.discard meter;
        Float.nan
      end
      else begin
        List.iter
          (fun (s : Cas_compiler.Cache.stats) ->
            Meter.count meter "cache.hits" (float_of_int s.hits);
            Meter.count meter "cache.misses" (float_of_int s.misses))
          (Cas_compiler.Cache.global_stats ());
        let scale = 1. /. Speed.slowdown_over speed t_pass (now ()) in
        Meter.commit meter ~time_scale:scale;
        if !passes = [] then begin
          first_decided := !decided;
          first_rss := rss ()
        end;
        scale
      end
    in
    if ran > 0 then passes := { starts; lats; ran; scale } :: !passes;
    if now () >= deadline then finished := true
  done;
  (* the last ops get samples on both sides *)
  Speed.sample speed;
  (List.rev !passes, !first_decided, !first_rss)

let complete n (passes : pass list) = List.filter (fun p -> p.ran = n) passes

(** Each op's median time over the passes that ran it, at nominal speed
    (each time corrected by the host's slowdown when it ran) and as
    measured. *)
let per_op speed (passes : pass list) n =
  let median f =
    Array.init n (fun i ->
        List.filter (fun p -> i < p.ran) passes
        |> List.map (fun p -> f p i)
        |> Array.of_list |> Stats.median)
  in
  ( median (fun p i ->
        Speed.normalize speed
          ~at:(p.starts.(i) +. (p.lats.(i) /. 2.))
          p.lats.(i)),
    median (fun p i -> p.lats.(i)) )

let gc_layers (g0 : Gc.stat) ~ops =
  let g1 = Gc.quick_stat () in
  let per_op x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_kwords", per_op ((g1.minor_words -. g0.minor_words) /. 1e3));
    ( "gc.promoted_kwords",
      per_op ((g1.promoted_words -. g0.promoted_words) /. 1e3) );
    ( "gc.major_collections",
      per_op (float_of_int (g1.major_collections - g0.major_collections)) );
    ( "gc.top_heap_mb",
      float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
  ]

let hit_pct ~hits ~misses =
  if hits +. misses = 0. then 0. else 100. *. hits /. (hits +. misses)

(** What the outermost spans account for of the ops' time in complete
    passes, both at nominal speed. *)
let span_coverage meter (complete : pass list) =
  let busy_ms =
    List.fold_left (fun acc p -> acc +. (1e3 *. sum p.lats *. p.scale)) 0. complete
  in
  100. *. Meter.get meter Meter.top_ms /. busy_ms

(** Per-op values of the meter's sums, plus the layers that are
    differences of two spans. *)
let meter_layers (m : Meter.t) ~ops =
  let per_op name = Meter.get m name /. float_of_int (max 1 ops) in
  List.map (fun (k, _) -> (k, per_op k)) (Meter.totals m)
  @ [
      ( "explore.dpor.engine_self.ms",
        per_op "explore.dpor.ms"
        -. per_op "explore.dpor.step.ms"
        -. per_op "explore.dpor.key.ms"
        -. per_op "race.dpor.predict.ms" );
      ("link.compose.ms", per_op "link.ms" -. per_op "link.resolve.ms");
      ( "cache.hit_pct",
        hit_pct ~hits:(Meter.get m "cache.hits")
          ~misses:(Meter.get m "cache.misses") );
    ]

let new_tally () = { attempted = 0; failed = 0; failures = [] }

let run_pool ~elasticity ~tracing ~seconds ~seed ~count make_ops : measured =
  let golden = Lazy.force Golden.builtin in
  let speed = Speed.create ~elasticity () in
  let setup_s, ops =
    timed_setup ~speed (fun () ->
        (make_ops ~golden ~seed ~count, ignore))
  in
  let n = Array.length ops in
  let meter = Meter.create ~tracing and tally = new_tally () in
  (* Peak memory from here on: the heap the set-ups left, then the ops. *)
  Gc.compact ();
  Service.reset_peak_rss "self";
  let g0 = Gc.quick_stat () in
  let passes, decided, peak_rss_mb =
    run_passes ~speed ~meter ~tally ~seconds ops ~rss:(fun () ->
        Service.peak_rss_mb "self")
  in
  let op_s, raw_op_s = per_op speed passes n in
  let complete = complete n passes in
  let values =
    meter_layers meter ~ops:(n * List.length complete)
    @ gc_layers g0 ~ops:tally.attempted
    @ [
        ("decided_frac", float_of_int decided /. float_of_int n);
        ("trace.span_coverage_pct", span_coverage meter complete);
      ]
  in
  {
    setup_s;
    tally;
    passes = List.length complete;
    op_s;
    raw_op_s;
    slowdown = Speed.run_slowdown speed;
    peak_rss_mb;
    values;
    meter;
  }

let run_service ~elasticity ~tracing ~seconds ~seed ~casc ~count : measured =
  let dir = ".casbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* relative: a socket path must fit in 108 bytes wherever the tree is *)
  let socket =
    Filename.concat dir (Printf.sprintf "cascd-%d.sock" (Unix.getpid ()))
  in
  Service.stop_on_signal ();
  let speed = Speed.create ~elasticity () in
  let setup_s, (answers, d) =
    timed_setup ~speed (fun () ->
        Cas_compiler.Cache.clear_memory ();
        let answers = Service.answers () in
        let d = Service.start ~casc ~socket in
        ((answers, d), fun () -> Service.stop d))
  in
  Fun.protect ~finally:(fun () -> Service.stop d) @@ fun () ->
  let conn =
    match Cas_serve.Client.connect ~socket with
    | Ok c -> c
    | Error e -> failwith ("cascd: " ^ e)
  in
  Fun.protect ~finally:(fun () -> Cas_serve.Client.close conn) @@ fun () ->
  let reqs, ops = Array.split (Service.ops ~seed ~count ~conn answers) in
  let m0 = Service.metrics d in
  let meter = Meter.create ~tracing and tally = new_tally () in
  let g0 = Gc.quick_stat () in
  let passes, decided, peak_rss_mb =
    run_passes ~speed ~meter ~tally ~seconds ops ~rss:(fun () ->
        Service.peak_rss_mb (string_of_int d.Service.pid))
  in
  let m1 = Service.metrics d in
  let op_s, raw_op_s = per_op speed passes count in
  let complete = complete count passes in
  let per_req x = x /. float_of_int (max 1 tally.attempted) in
  let of_kind k =
    Array.of_list
      (List.filteri (fun i _ -> reqs.(i).Service.kind = k) (Array.to_list op_s))
  in
  let gauge name =
    Service.scheduler_gauge name m1 -. Service.scheduler_gauge name m0
  in
  let h0, mi0 = Service.cache_totals m0 and h1, mi1 = Service.cache_totals m1 in
  let hits = float_of_int (h1 - h0) and misses = float_of_int (mi1 - mi0) in
  let exec =
    if tracing then Service.exec_times speed (Array.to_list reqs) else []
  in
  (* admission, queue, encoding and socket: latency minus execution *)
  let overhead =
    List.filter_map
      (fun (k, e) ->
        if k = Service.Repeat then None
        else Some (Array.map (fun t -> t -. e) (of_kind k)))
      exec
    |> Array.concat
  in
  let server_p99_ms =
    match Cas_diag.Json.member_opt "latency_ns" m1 with
    | Some l -> float_of_int (Service.int "p99" l) /. 1e6
    | None -> 0.
  in
  let values =
    List.map
      (fun k ->
        ( "serve.rtt." ^ Service.kind_name k ^ ".p50_ms",
          1e3 *. Stats.median (of_kind k) ))
      Service.kinds
    @ List.map
        (fun (k, e) -> ("serve.exec." ^ Service.kind_name k ^ ".ms", 1e3 *. e))
        exec
    @ [
        ( "serve.overhead.p50_ms",
          if overhead = [||] then 0. else 1e3 *. Stats.median overhead );
        ("serve.executed", gauge "executed");
        ("serve.coalesced", gauge "coalesced");
        ("serve.memo_hits", gauge "memo_hits");
        ("serve.overloaded", gauge "overloaded");
        ("serve.server_p99_ms", server_p99_ms);
        ("cache.hits", per_req hits);
        ("cache.misses", per_req misses);
        ("cache.hit_pct", hit_pct ~hits ~misses);
        ("decided_frac", float_of_int decided /. float_of_int count);
        ("trace.span_coverage_pct", span_coverage meter complete);
      ]
    @ gc_layers g0 ~ops:tally.attempted
  in
  {
    setup_s;
    tally;
    passes = List.length complete;
    op_s;
    raw_op_s;
    slowdown = Speed.run_slowdown speed;
    peak_rss_mb;
    values;
    meter;
  }

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  workload : workload;
  seed : int;
  seconds : float;
  tracing : bool;
  m : measured;
}

(** [count] shrinks a run for the tests: ops per pass. *)
let run ~(workload : workload) ~seed ~seconds ~tracing ~casc ?count () :
    result =
  let elasticity = workload.elasticity in
  let m =
    match workload.kind with
    | Pool p ->
      let count = Option.value count ~default:p.count in
      run_pool ~elasticity ~tracing ~seconds ~seed ~count p.ops
    | Service s ->
      let count = Option.value count ~default:s.count in
      run_service ~elasticity ~tracing ~seconds ~seed ~casc ~count
  in
  { workload; seed; seconds; tracing; m }

(** Throughput and latency percentiles of per-op times. *)
let timings (op_s : float array) =
  let ms q = 1e3 *. Stats.percentile op_s q in
  [
    ("ops_per_s", float_of_int (Array.length op_s) /. sum op_s);
    ("op_p50_ms", ms 0.50);
    ("op_p90_ms", ms 0.90);
  ]

let e2e_values (r : result) : (string * float) list =
  (("setup_s", r.m.setup_s) :: timings r.m.op_s)
  @ [ ("peak_rss_mb", r.m.peak_rss_mb) ]

let value_of (r : result) name =
  Option.value ~default:0. (List.assoc_opt name r.m.values)

let layer_values (r : result) : (string * float) list =
  List.map
    (fun (name, _) ->
      if name = "trace.ops_per_s" then
        (name, List.assoc "ops_per_s" (e2e_values r))
      else (name, value_of r name))
    layers

(** The work counters of a pool run. The cascd workload has none: how
    many passes fit in a run decides its share of cache reads. *)
let work_values (r : result) : (string * float) list =
  match r.workload.kind with
  | Pool _ -> List.map (fun name -> (name, value_of r name)) work_counters
  | Service _ -> []

let correct (r : result) = r.m.tally.failed = 0
let e2e_units = List.map (fun m -> (m.m_name, m.unit_)) e2e

let metric_obj values units =
  Bjson.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           Bjson.Obj
             [
               ("value", Bjson.Num v);
               ("unit", Bjson.Str (List.assoc name units));
             ] ))
       values)

(** The result line, the last of standard output: end-to-end metrics,
    or per-layer ones in a traced run. *)
let summary_line (r : result) : string =
  let metrics =
    if r.tracing then metric_obj (layer_values r) layers
    else metric_obj (e2e_values r) e2e_units
  in
  Bjson.to_string
    (Bjson.Obj
       [
         ("correct", Bjson.Bool (correct r));
         ("attempted", Bjson.Num (float_of_int r.m.tally.attempted));
         ("failed", Bjson.Num (float_of_int r.m.tally.failed));
         ("metrics", metrics);
       ])

(** The full record [--json] writes and [compare] reads. *)
let to_json (r : result) : Bjson.t =
  let num x = Bjson.Num (float_of_int x) in
  Bjson.Obj
    ([
       ("workload", Bjson.Str r.workload.name);
       ("seed", num r.seed);
       ("seconds", Bjson.Num r.seconds);
       ("trace", Bjson.Bool r.tracing);
       ("host", Bjson.Obj (host ()));
       ("correct", Bjson.Bool (correct r));
       ("attempted", num r.m.tally.attempted);
       ("failed", num r.m.tally.failed);
       ( "failures",
         Bjson.Arr (List.rev_map (fun f -> Bjson.Str f) r.m.tally.failures) );
       ("passes", num r.m.passes);
       ("slowdown", Bjson.Num r.m.slowdown);
       ("metrics", metric_obj (e2e_values r) e2e_units);
       ("measured", metric_obj (timings r.m.raw_op_s) e2e_units);
       ( "work",
         Bjson.Obj
           (List.map (fun (k, v) -> (k, Bjson.Num v)) (work_values r)) );
     ]
    @
    if r.tracing then [ ("layers", metric_obj (layer_values r) layers) ]
    else [])

let print_report (r : result) =
  let line units (name, v) =
    Printf.printf "%-34s %14.4f %s\n" name v (List.assoc name units)
  in
  Printf.printf
    "casbench %s seed %d: %d ops (%d failed) over %d passes%s; host %.2fx \
     slower than nominal\n"
    r.workload.name r.seed r.m.tally.attempted r.m.tally.failed r.m.passes
    (if r.tracing then ", traced" else "")
    r.m.slowdown;
  List.iter (Printf.printf "  FAILED %s\n") (List.rev r.m.tally.failures);
  List.iter (line e2e_units) (e2e_values r);
  List.iter
    (fun (name, v) ->
      Printf.printf "%-34s %14.4f %s\n" ("  as measured: " ^ name) v
        (List.assoc name e2e_units))
    (timings r.m.raw_op_s);
  if r.tracing then List.iter (line layers) (layer_values r)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let layer_better name =
  let higher =
    [
      "hits"; "hit_pct"; "coalesced"; "decided_frac"; "ops_per_s";
      "coverage_pct";
    ]
  in
  if List.exists (fun suffix -> String.ends_with ~suffix name) higher then
    "higher"
  else "lower"

let better_name = function Stats.Lower -> "lower" | Stats.Higher -> "higher"

(** The BENCHMARK.json these tables define; the test suite checks the
    committed file against it. *)
let spec () : Bjson.t =
  let s x = Bjson.Str x in
  let obj fields = Bjson.Obj fields in
  obj
    [
      ("command", Bjson.Arr [ s "python3"; s "casbench/run.py" ]);
      ("paths", Bjson.Arr [ s "casbench" ]);
      ("run_seconds", Bjson.Num (float_of_int run_seconds));
      ( "workloads",
        Bjson.Arr
          (List.map
             (fun w -> obj [ ("name", s w.name); ("why", s w.why) ])
             workloads) );
      ( "end_to_end",
        Bjson.Arr
          (List.map
             (fun m ->
               obj
                 [
                   ("name", s m.m_name);
                   ("unit", s m.unit_);
                   ("better", s (better_name m.better));
                   ("bound", Bjson.Num m.bound);
                 ])
             e2e) );
      ( "per_layer",
        Bjson.Arr
          (List.map
             (fun (name, unit_) ->
               obj
                 [
                   ("name", s name);
                   ("unit", s unit_);
                   ("better", s (layer_better name));
                 ])
             layers) );
    ]
