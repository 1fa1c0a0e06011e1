(** Live observability for the certification daemon: request counters by
    kind and status, dedup accounting, and request-latency histograms,
    all cheap enough to bump on every request and snapshot on demand
    (the [metrics] protocol request and [casc serve --stats]).

    Latencies go into a log₂-bucketed histogram over microseconds:
    bucket [i] holds latencies in [[2^i, 2^(i+1)) µs], so 48 buckets
    cover nanoseconds to days and a quantile read is a single cumulative
    scan. Quantiles are reported as the upper bound of the bucket they
    land in — a ≤2× overestimate, which is the right bias for a latency
    gate. All counters sit behind one mutex: a request touches it twice
    (admission, completion), which is noise next to even a cache-hit
    certify, and a [snapshot] reads them all in one acquisition, so a
    metrics document never shows half of a request's completion. *)

let buckets = 48

type t = {
  lock : Mutex.t;
  started_at : float;  (** [Unix.gettimeofday] at creation, for uptime *)
  by_kind : (string, int ref) Hashtbl.t;
  mutable ok : int;
  mutable errors : int;  (** requests answered with a structured error *)
  mutable overloaded : int;  (** rejected by admission control *)
  mutable rejected_draining : int;  (** rejected because shutting down *)
  mutable bad_frames : int;  (** malformed/oversized frames *)
  hist : int array;
  mutable lat_count : int;
  mutable lat_max_ns : int;
}

let create () : t =
  {
    lock = Mutex.create ();
    started_at = Unix.gettimeofday ();
    by_kind = Hashtbl.create 8;
    ok = 0;
    errors = 0;
    overloaded = 0;
    rejected_draining = 0;
    bad_frames = 0;
    hist = Array.make buckets 0;
    lat_count = 0;
    lat_max_ns = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

(** Count an arriving request of [kind] (before any verdict on it). *)
let record_request (t : t) ~(kind : string) : unit =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.by_kind kind with
      | Some r -> incr r
      | None -> Hashtbl.add t.by_kind kind (ref 1))

type status = Ok_ | Error_ | Overloaded | Draining

let bucket_of_ns ns =
  let us = max 0 ns / 1000 in
  let rec go i v = if v <= 1 || i = buckets - 1 then i else go (i + 1) (v / 2) in
  go 0 us

(** Count a finished (or rejected) request and its wall-clock latency
    from frame arrival to response write. *)
let record_result (t : t) (st : status) ~(latency_ns : int) : unit =
  with_lock t (fun () ->
      (match st with
      | Ok_ -> t.ok <- t.ok + 1
      | Error_ -> t.errors <- t.errors + 1
      | Overloaded -> t.overloaded <- t.overloaded + 1
      | Draining -> t.rejected_draining <- t.rejected_draining + 1);
      t.hist.(bucket_of_ns latency_ns) <- t.hist.(bucket_of_ns latency_ns) + 1;
      t.lat_count <- t.lat_count + 1;
      t.lat_max_ns <- max t.lat_max_ns latency_ns)

let record_bad_frame (t : t) : unit =
  with_lock t (fun () -> t.bad_frames <- t.bad_frames + 1)

(** Latency at quantile [q] ∈ (0,1] of [hist], which holds [count]
    latencies of at most [max_ns], in ns (bucket upper bound). *)
let quantile (hist : int array) ~(count : int) ~(max_ns : int) (q : float) :
    int =
  if count = 0 then 0
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int count))) in
    let rec go i acc =
      if i >= buckets then max_ns
      else
        let acc = acc + hist.(i) in
        if acc >= target then
          (* upper bound of bucket i, capped by the observed max *)
          min max_ns ((1 lsl (i + 1)) * 1000)
        else go (i + 1) acc
    in
    go 0 0
  end

type snapshot = {
  uptime_ns : int;
  requests_total : int;  (** every request that got a response *)
  requests_ok : int;
  requests_error : int;
  requests_overloaded : int;
  requests_draining : int;
  bad_frames : int;
  by_kind : (string * int) list;  (** sorted by kind name *)
  latency_count : int;  (** latencies in the histogram *)
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  max_ns : int;
}

(** Every counter and quantile, read in one acquisition of the lock. *)
let snapshot (t : t) : snapshot =
  with_lock t (fun () ->
      let quantile = quantile t.hist ~count:t.lat_count ~max_ns:t.lat_max_ns in
      {
        uptime_ns =
          int_of_float ((Unix.gettimeofday () -. t.started_at) *. 1e9);
        requests_total = t.ok + t.errors + t.overloaded + t.rejected_draining;
        requests_ok = t.ok;
        requests_error = t.errors;
        requests_overloaded = t.overloaded;
        requests_draining = t.rejected_draining;
        bad_frames = t.bad_frames;
        by_kind =
          Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.by_kind []
          |> List.sort compare;
        latency_count = t.lat_count;
        p50_ns = quantile 0.50;
        p95_ns = quantile 0.95;
        p99_ns = quantile 0.99;
        max_ns = t.lat_max_ns;
      })

(** The cache tiers' hit/miss/disk-hit counters as JSON rows, with a
    percent hit rate (integer: our JSON is integer-only by design). *)
let cache_rows () : Cas_diag.Json.t =
  let open Cas_diag.Json in
  List
    (List.map
       (fun (s : Cas_compiler.Cache.stats) ->
         let total = s.Cas_compiler.Cache.hits + s.Cas_compiler.Cache.misses in
         Obj
           [
             ("store", Str s.Cas_compiler.Cache.name);
             ("hits", Int s.Cas_compiler.Cache.hits);
             ("disk_hits", Int s.Cas_compiler.Cache.disk_hits);
             ("misses", Int s.Cas_compiler.Cache.misses);
             ( "hit_rate_pct",
               Int
                 (if total = 0 then 0
                  else 100 * s.Cas_compiler.Cache.hits / total) );
           ])
       (Cas_compiler.Cache.global_stats ()))

(** Full metrics document, as served to [metrics] requests and dumped by
    [casc serve --stats]. [extra] lets the daemon append scheduler-level
    gauges (queue depth, worker utilization, dedup counters). *)
let to_json (t : t) ~(extra : (string * Cas_diag.Json.t) list) :
    Cas_diag.Json.t =
  let open Cas_diag.Json in
  let s = snapshot t in
  Obj
    ([
       ("version", Str Cas_base.Version.v);
       ("uptime_ns", Int s.uptime_ns);
       ( "requests",
         Obj
           ([
              ("total", Int s.requests_total);
              ("ok", Int s.requests_ok);
              ("error", Int s.requests_error);
              ("overloaded", Int s.requests_overloaded);
              ("draining", Int s.requests_draining);
              ("bad_frames", Int s.bad_frames);
            ]
           @ List.map (fun (k, n) -> ("kind_" ^ k, Int n)) s.by_kind) );
       ( "latency_ns",
         Obj
           [
             ("count", Int s.latency_count);
             ("p50", Int s.p50_ns);
             ("p95", Int s.p95_ns);
             ("p99", Int s.p99_ns);
             ("max", Int s.max_ns);
           ] );
       ("cache", cache_rows ());
     ]
    @ extra)
