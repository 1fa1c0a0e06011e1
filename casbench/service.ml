(** The cascd-edit workload: one [casc serve] child process driven by a
    closed loop over one client connection.

    Requests are a fixed function of (seed, index), over the 24 Zipf
    ranks (s = 1.1) of [Corpus.rank_source]:
    - 20% [repeat]: certify a rank's unedited source, byte for byte as
      set-up sent it, so the daemon answers from its response memo;
    - 60% [edit]: certify one of 7 one-function edits of the rank;
    - 10% [drf] and 10% [compile] of one of the rank's 8 variants.

    The kinds' latencies differ by up to four times (repeat < compile <
    drf < edit); this mix puts the median latency inside the edits' own
    spread, not on the border between two kinds, where which side it
    fell on moved from seed to seed. (At 50% repeats the median flipped
    between the slowest repeat and the fastest compile: a third apart.)

    The runner sends the same [requests_per_pass] requests in every
    pass. Each non-repeat request carries a trailing comment unique to
    its index and pass: its response-memo key (the request text) is new
    every time, while the certificate cache, keyed by parsed content,
    answers from the bounded set of 192 variants — the first request of
    a variant writes the cache, later ones read it. The daemon's memory
    therefore stops growing once the variants have been seen, however
    fast it serves. *)

open Cas_base
module P = Cas_serve.Protocol
module C = Cas_serve.Client
module J = Cas_diag.Json

let ranks = 24
let variants = 8
let zipf = Rng.zipf_cdf ~n:ranks ~s:1.1

type kind = Repeat | Edit | Drf | Compile

let kinds = [ Repeat; Edit; Drf; Compile ]

let kind_name = function
  | Repeat -> "repeat"
  | Edit -> "edit"
  | Drf -> "drf"
  | Compile -> "compile"

type req = { id : int; kind : kind; rank : int; variant : int }

let request ~seed id : req =
  let r = Rng.make ~seed:((seed * 1_000_003) + id) in
  let u = Rng.uniform r in
  let kind =
    if u < 0.2 then Repeat
    else if u < 0.8 then Edit
    else if u < 0.9 then Drf
    else Compile
  in
  let rank = Rng.sample zipf r in
  let variant =
    match kind with
    | Repeat -> 0
    | Edit -> 1 + Rng.int r (variants - 1)
    | Drf | Compile -> Rng.int r variants
  in
  { id; kind; rank; variant }

(** Requests per pass: about half a second of the closed loop. *)
let requests_per_pass = 2000

(** The request [q] as sent in pass [pass]. *)
let protocol_kind ?(pass = 0) (q : req) : P.kind =
  let src = Corpus.rank_source ~edit:q.variant q.rank in
  let source =
    if q.kind = Repeat then src
    else Printf.sprintf "%s// request %d pass %d\n" src q.id pass
  in
  match q.kind with
  | Repeat | Edit -> P.Certify { source }
  | Drf ->
    P.Drf
      { source; entries = [ Printf.sprintf "m%d" q.rank ]; with_lock = false }
  | Compile -> P.Compile { source }

(* ------------------------------------------------------------------ *)
(* Known answers                                                       *)
(* ------------------------------------------------------------------ *)

(** Expected payload fields per (rank, variant), computed in-process by
    the same [Daemon.exec] the daemon runs. Computing them also warms
    this process's caches to the daemon's steady state, which the traced
    run's in-process timings rely on. *)
type answers = {
  verdicts : (int * int, int) Hashtbl.t;  (** certify: verdict count *)
  drf_text : (int * int, string) Hashtbl.t;
  asm_digest : (int * int, string) Hashtbl.t;
}

let exec_payload k =
  match Cas_serve.Daemon.exec Cas_serve.Daemon.default_config k with
  | Error e -> failwith ("in-process exec: " ^ e)
  | Ok s -> (
    match J.parse s with
    | Ok j -> j
    | Error e -> failwith ("in-process payload: " ^ e))

let str key p = match J.member_opt key p with Some (J.Str s) -> s | _ -> ""
let int key p = match J.member_opt key p with Some (J.Int n) -> n | _ -> -1

let answers () : answers =
  let tbl () = Hashtbl.create 256 in
  let a = { verdicts = tbl (); drf_text = tbl (); asm_digest = tbl () } in
  for rank = 0 to ranks - 1 do
    for variant = 0 to variants - 1 do
      let payload kind =
        exec_payload (protocol_kind { id = 0; kind; rank; variant })
      in
      let key = (rank, variant) in
      Hashtbl.replace a.verdicts key (int "verdicts" (payload Edit));
      Hashtbl.replace a.drf_text key (P.payload_text (payload Drf));
      Hashtbl.replace a.asm_digest key (str "asm_digest" (payload Compile))
    done
  done;
  a

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + m <= n && (matches i 0 || at (i + 1)) in
  at 0

let check (a : answers) (q : req) (r : (P.response, string) result) :
    Workloads.outcome =
  match r with
  | Error e -> Failed ("transport: " ^ e)
  | Ok { status = Sok; payload; _ } -> (
    let key = (q.rank, q.variant) in
    let wrong what =
      Workloads.Failed
        (Printf.sprintf "%s #%d: wrong %s" (kind_name q.kind) q.id what)
    in
    match q.kind with
    | Repeat | Edit ->
      if not (P.payload_bool "sim_ok" payload) then wrong "sim_ok"
      else if int "verdicts" payload <> Hashtbl.find a.verdicts key then
        wrong "verdict count"
      else if contains (P.payload_text payload) "inconclusive" then Undecided
      else Decided
    | Drf ->
      let text = P.payload_text payload in
      if text <> Hashtbl.find a.drf_text key then wrong "drf report"
      else if contains text "(truncated)" then Undecided
      else Decided
    | Compile ->
      if str "asm_digest" payload <> Hashtbl.find a.asm_digest key then
        wrong "asm"
      else Decided)
  | Ok { status; payload; _ } ->
    Failed
      (Printf.sprintf "%s: %s" (P.status_name status)
         (P.payload_message payload))

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

(** The daemon currently running, for [stop_on_signal]. *)
let live : daemon option ref = ref None

(** On SIGINT or SIGTERM, stop the daemon before exiting, so an
    interrupted run leaves no process behind. *)
let stop_on_signal () =
  let handle _ =
    Option.iter
      (fun d ->
        (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid))
      !live;
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)

let spawn ~casc ~socket : (daemon, string) result =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process casc
      [| casc; "serve"; "--no-cache"; "--jobs"; "1"; "--socket"; socket |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let d = { pid; socket } in
  live := Some d;
  match C.wait_ready ~socket ~timeout:30. () with
  | Ok () -> Ok d
  | Error e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    live := None;
    Error e

(** Ask for a graceful drain and wait for the process; SIGTERM if the
    request cannot be delivered. *)
let stop (d : daemon) =
  (match C.with_connection ~socket:d.socket (fun c -> C.request c Shutdown) with
  | Ok (Ok _) -> ()
  | _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  live := None

let metrics (d : daemon) : J.t =
  match C.with_connection ~socket:d.socket (fun c -> C.request c Metrics) with
  | Ok (Ok { status = Sok; payload; _ }) -> payload
  | _ -> failwith "cascd metrics request failed"

let scheduler_gauge name (m : J.t) =
  match J.member_opt "scheduler" m with
  | Some s -> float_of_int (int name s)
  | None -> 0.

let cache_totals (m : J.t) =
  match J.member_opt "cache" m with
  | Some (J.List rows) ->
    List.fold_left
      (fun (h, mi) row -> (h + int "hits" row, mi + int "misses" row))
      (0, 0) rows
  | _ -> (0, 0)

(** VmHWM of a process ("self" or a pid), in MB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ ->
               Option.map (fun k -> k /. 1024.) (float_of_string_opt kb)
             | [] -> None)
           | _ -> None)
    |> Option.value ~default:Float.nan

(** Reset a process's VmHWM to its current RSS (Linux's [clear_refs]
    "5"), so that [peak_rss_mb] covers only what runs after. Where the
    kernel refuses, VmHWM keeps counting from the process's start. *)
let reset_peak_rss pid =
  try
    Out_channel.with_open_text
      (Printf.sprintf "/proc/%s/clear_refs" pid)
      (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(** Set-up: start the daemon and certify every rank once. *)
let start ~casc ~socket =
  match spawn ~casc ~socket with
  | Error e -> failwith ("cascd: " ^ e)
  | Ok d ->
    let certify_all c =
      for rank = 0 to ranks - 1 do
        let q = { id = 0; kind = Repeat; rank; variant = 0 } in
        match C.request c (protocol_kind q) with
        | Ok { status = Sok; _ } -> ()
        | _ -> failwith (Printf.sprintf "cascd: set-up certify of rank %d" rank)
      done
    in
    (match C.with_connection ~socket certify_all with
    | Ok () -> ()
    | Error e ->
      stop d;
      failwith e);
    d

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

(** One op per request of a pass: send it on [conn] and check the
    answer. The request text is built before the op is timed, with the
    number of times the op has run as its pass. *)
let ops ~seed ~count ~conn (a : answers) : (req * Workloads.op) array =
  Array.init count (fun id ->
      let q = request ~seed id in
      let runs = ref 0 and next = ref P.Ping in
      let prepare () =
        next := protocol_kind ~pass:!runs q;
        incr runs
      in
      let run m =
        check a q
          (Meter.span m ("serve." ^ kind_name q.kind) (fun () ->
               C.request conn !next))
      in
      (q, { Workloads.label = Printf.sprintf "#%d" id; prepare; run }))

(** Median in-process [Daemon.exec] time per kind over (at most 50 of)
    [reqs], on this process's warm caches — what the daemon spends
    executing, without its admission, queue, encoding and socket. Each
    time is taken at nominal speed. *)
let exec_times speed (reqs : req list) : (kind * float) list =
  let time q =
    let k = protocol_kind q in
    let t0 = Unix.gettimeofday () in
    ignore (Cas_serve.Daemon.exec Cas_serve.Daemon.default_config k);
    let t1 = Unix.gettimeofday () in
    Speed.tick speed ~busy:(t1 -. t0);
    (t0, t1)
  in
  let timed =
    List.map
      (fun kind ->
        ( kind,
          List.filter (fun (q : req) -> q.kind = kind) reqs
          |> List.filteri (fun i _ -> i < 50)
          |> List.map time ))
      kinds
  in
  Speed.sample speed;
  List.map
    (fun (kind, ts) ->
      ( kind,
        List.map
          (fun (t0, t1) -> Speed.normalize speed ~at:t1 (t1 -. t0))
          ts
        |> Array.of_list |> Stats.median ))
    timed
