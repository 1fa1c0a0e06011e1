(** Tests of the benchmark itself: seeded inputs, order statistics and
    bounds, every workload's op on a few inputs, traced against untraced
    work, the comparison verdicts, and BENCHMARK.json against the tables
    it is generated from. *)

open Casbench_lib

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float 1e-9
let tstr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

(** Everything the ops of one seed are made from, as one string. *)
let op_list ~seed =
  let progs ps =
    List.map
      (fun ((p : Corpus.program), _) ->
        String.concat "|" (p.label :: (p.entries @ p.sources)))
      ps
  in
  let modules =
    List.map
      (fun (name, src, entry) ->
        String.concat "|" [ name; src; Option.value ~default:"-" entry ])
      (Workloads.build_modules ~seed ~count:6)
  in
  let requests =
    List.init 200 (fun i ->
        match Service.protocol_kind (Service.request ~seed i) with
        | Certify { source } | Compile { source } -> source
        | Drf { source; _ } -> "drf:" ^ source
        | _ -> "?")
  in
  String.concat "\n"
    (progs (Workloads.drf_programs ~seed ~count:20)
    @ progs (Workloads.tso_programs ~seed ~count:6)
    @ modules @ requests)

let test_seeded () =
  check tstr "same seed, same bytes" (op_list ~seed:1) (op_list ~seed:1);
  check tbool "another seed, other inputs" true
    (op_list ~seed:1 <> op_list ~seed:2)

let test_stratified () =
  let ps = Workloads.drf_programs ~seed:3 ~count:40 in
  List.iteri
    (fun i ((p : Corpus.program), expect) ->
      if expect = None then begin
        check tint (p.label ^ " threads") 2 (List.length p.entries);
        check tbool (p.label ^ " lock") (i mod 4 = 0) p.with_lock
      end)
    ps

(* ------------------------------------------------------------------ *)
(* Percentiles and bounds                                              *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  check tbool "empty is nan" true (Float.is_nan (Stats.percentile [||] 0.5));
  check tfloat "single" 7. (Stats.percentile [| 7. |] 0.99);
  check tfloat "q=0 is the minimum" 1. (Stats.percentile xs 0.);
  check tfloat "q=1 is the maximum" 10. (Stats.percentile xs 1.);
  check tfloat "nearest rank p90" 9. (Stats.percentile xs 0.9);
  check tfloat "nearest rank p50" 5. (Stats.percentile xs 0.5);
  check tfloat "p99 of ten is the max" 10. (Stats.percentile xs 0.99);
  check tfloat "unsorted input" 2. (Stats.percentile [| 3.; 1.; 2. |] 0.5);
  check tfloat "median odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  check tfloat "median even" 5.5 (Stats.median xs);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  (match Stats.quartiles xs with
  | Some (q1, q3) ->
    check tfloat "q1" 2.75 q1;
    check tfloat "q3" 8.25 q3
  | None -> Alcotest.fail "no quartiles");
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  check tbool "two samples" true
    (Stats.quartiles [| 2.; 1. |] = Some (0.75, 2.25));
  check tbool "one sample has none" true (Stats.quartiles [| 1. |] = None);
  check tbool "spread" true (Stats.spread xs = Some ((8.25 -. 2.75) /. 5.5))

let test_bounds () =
  let within better ?floor base now bound =
    Stats.within ~better ~bound ?floor ~base ~now ()
  in
  let lower = Stats.Lower and higher = Stats.Higher in
  check tbool "lower: equal" true (within lower 10. 10. 0.1);
  check tbool "lower: at the bound" true (within lower 10. 11. 0.1);
  check tbool "lower: past the bound" false (within lower 10. 11.01 0.1);
  check tbool "lower: improvement" true (within lower 10. 2. 0.1);
  check tbool "higher: drop at the bound" true (within higher 100. 90. 0.1);
  check tbool "higher: drop past the bound" false (within higher 100. 89. 0.1);
  check tbool "higher: gain" true (within higher 100. 500. 0.);
  check tbool "floor absorbs a tiny absolute change" true
    (within lower ~floor:0.05 0.01 0.05 0.2);
  check tbool "floor does not absorb a large one" false
    (within lower ~floor:0.05 0.01 0.07 0.2);
  check tbool "zero base" true (within lower 0. 0. 0.1);
  check tbool "zero base, nonzero now" false (within lower 0. 1. 0.1);
  check tfloat "worse share" 0.25
    (Stats.worse_share ~better:lower ~base:4. ~now:5.)

(* ------------------------------------------------------------------ *)
(* Every workload's op on three inputs                                 *)
(* ------------------------------------------------------------------ *)

let run_once ?(tracing = false) ?(count = 3) name =
  match Runner.find_workload name with
  | None -> Alcotest.fail name
  | Some workload ->
    Runner.run ~workload ~seed:1 ~seconds:0. ~tracing
      ~casc:"../../bin/casc.exe" ~count ()

let smoke name () =
  let r = run_once name in
  List.iter prerr_endline r.m.tally.failures;
  check tbool (name ^ ": no failed op") true (Runner.correct r);
  check tbool (name ^ ": ops ran") true (r.m.tally.attempted > 0);
  List.iter
    (fun (metric, v) -> check tbool (name ^ " " ^ metric) true (v > 0.))
    (Runner.e2e_values r)

let test_smoke_service () =
  let r = run_once ~count:12 "cascd-edit" in
  List.iter prerr_endline r.m.tally.failures;
  check tbool "cascd-edit: no failed request" true (Runner.correct r);
  check tint "cascd-edit: requests" 12 r.m.tally.attempted

(** A racy answer where the corpus says DRF must fail the op. *)
let test_wrong_answer_fails () =
  let p, _ = List.hd Corpus.drf in
  let op =
    Workloads.drf_op ~engine:Cas_mc.Engine.Dpor ~expect:(Some false) p
  in
  match op.run (Meter.create ~tracing:false) with
  | Workloads.Failed _ -> ()
  | _ -> Alcotest.fail "a wrong verdict passed"

(* ------------------------------------------------------------------ *)
(* Traced against untraced                                             *)
(* ------------------------------------------------------------------ *)

let traced_equals_untraced name () =
  let plain = Runner.work_values (run_once name) in
  let traced_run = run_once ~tracing:true name in
  List.iter2
    (fun (k, a) (_, b) -> check tfloat (name ^ " " ^ k) a b)
    plain
    (Runner.work_values traced_run);
  check tbool (name ^ ": some work counted") true
    (List.exists (fun (_, v) -> v > 0.) plain);
  let layers = Runner.layer_values traced_run in
  check tbool (name ^ ": spans cover 90% of op time") true
    (List.assoc "trace.span_coverage_pct" layers >= 90.);
  match Bjson.parse (Bjson.to_string (Meter.chrome traced_run.m.meter)) with
  | Ok (Bjson.Obj [ ("traceEvents", Bjson.Arr (_ :: _)); _ ]) -> ()
  | _ -> Alcotest.fail "chrome trace"

(** The traced build seals the object exactly as [Objfile.build] does. *)
let test_traced_build_bytes () =
  let name, source, _ = List.hd (Workloads.build_modules ~seed:1 ~count:1) in
  let bytes = function
    | Ok o -> Cas_link.Objfile.to_string o
    | Error e -> Alcotest.fail e
  in
  check tstr "same object"
    (bytes (Cas_link.Objfile.build ~name ~source ()))
    (bytes
       (Workloads.traced_build (Meter.create ~tracing:true) ~name ~source))

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let doc ~cores ~seed ~ops ~worlds =
  let open Bjson in
  Obj
    [
      ("workload", Str "drf-dpor");
      ("seed", Num seed);
      ("trace", Bool false);
      ( "host",
        Obj [ ("cores", Num cores); ("ocaml", Str "5"); ("arch", Str "x") ] );
      ( "metrics",
        Obj
          [ ("ops_per_s", Obj [ ("value", Num ops); ("unit", Str "ops/s") ]) ]
      );
      ("work", Obj [ ("explore.dpor.worlds", Num worlds) ]);
    ]

let compare_sets a b =
  let write name docs =
    Out_channel.with_open_bin name (fun oc ->
        output_string oc (Bjson.to_string (Bjson.Arr docs)));
    name
  in
  Compare.run (write "compare-a.json" a) (write "compare-b.json" b)

let test_compare () =
  let set ?(cores = 2.) ops worlds =
    List.mapi
      (fun i ops -> doc ~cores ~seed:(float_of_int (i + 1)) ~ops ~worlds)
      ops
  in
  let steady = set [ 100.; 101.; 99. ] 5. in
  check tint "same numbers" 0 (compare_sets steady steady);
  check tint "throughput fell" 1
    (compare_sets steady (set [ 50.; 51.; 49. ] 5.));
  check tint "overlapping sets are unresolved, not worse" 0
    (compare_sets (set [ 100.; 60.; 99. ] 5.) (set [ 50.; 98.; 49. ] 5.));
  check tint "work counter changed" 1
    (compare_sets (set [ 100. ] 5.) (set [ 100. ] 6.));
  check tint "other host: timings skipped" 0
    (compare_sets steady (set ~cores:4. [ 50.; 51.; 49. ] 5.))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let valid_name s =
  String.length s <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let test_spec () =
  match Bjson.read_file "../../BENCHMARK.json" with
  | Error e -> Alcotest.fail e
  | Ok committed ->
    check tstr "BENCHMARK.json is casbench spec's output"
      (Bjson.to_string (Runner.spec ()))
      (Bjson.to_string committed);
    check (Alcotest.list tstr) "pass names" Runner.passes
      Cas_compiler.Driver.pass_names;
    List.iter
      (fun (name, _) -> check tbool name true (valid_name name))
      Runner.layers;
    List.iter
      (fun (m : Runner.metric) ->
        check tbool m.m_name true (valid_name m.m_name && m.bound <= 0.25))
      Runner.e2e;
    List.iter
      (fun (w : Runner.workload) ->
        check tbool w.name true
          (valid_name w.name && String.length w.why <= 200
          && not (String.contains w.why '\n')))
      Runner.workloads;
    check tbool "at most 128 layer metrics" true
      (List.length Runner.layers <= 128)

let () =
  let pools = [ "build-link"; "drf-dpor"; "drf-naive"; "tso-lemma16" ] in
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "casbench"
    [
      ( "inputs",
        [
          case "seeded op lists" test_seeded;
          case "stratified shapes" test_stratified;
        ] );
      ( "stats",
        [
          case "percentiles" test_percentiles;
          case "bounds and floors" test_bounds;
        ] );
      ( "smoke",
        List.map (fun w -> case w (smoke w)) pools
        @ [
            case "cascd-edit" test_smoke_service;
            case "wrong answer fails" test_wrong_answer_fails;
          ] );
      ( "traced",
        List.map (fun w -> case w (traced_equals_untraced w)) pools
        @ [ case "build object bytes" test_traced_build_bytes ] );
      ("compare", [ case "verdicts" test_compare ]);
      ("spec", [ case "BENCHMARK.json" test_spec ]);
    ]
