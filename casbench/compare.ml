(** [casbench compare A B]: is B worse than A?

    Each side is a set of runs — result files written by [casbench run
    --json], arrays of them, or directories holding them. For every
    (workload, end-to-end metric) pair the medians are compared under
    that metric's bound ([Runner.e2e], which BENCHMARK.json is generated
    from; [Runner.floor_of] adds an absolute floor for values near the
    timer's resolution):
    - [ok]: B is not worse than A by more than the bound;
    - [worse]: it is, and the two sets' ranges do not overlap;
    - [unresolved]: it is, but the ranges overlap — run more seeds.

    Work counters are compared exactly, per (workload, seed). Metrics
    that depend on the machine are skipped, loudly, when the two sets
    were not recorded on the same host class. *)

let rec load path : Bjson.t list =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.concat_map (fun f -> load (Filename.concat path f))
  else
    match Bjson.read_file path with
    | Error e -> failwith e
    | Ok (Bjson.Arr runs) -> runs
    | Ok run -> [ run ]

let str k j =
  Option.value ~default:"" (Option.bind (Bjson.member k j) Bjson.to_str)

let num k j = Option.bind (Bjson.member k j) Bjson.to_num

let metric name run =
  Option.bind (Bjson.member "metrics" run) (fun ms ->
      Option.bind (Bjson.member name ms) (num "value"))

let host_class run =
  match Bjson.member "host" run with
  | None -> "?"
  | Some h ->
    List.map
      (fun k -> Option.fold ~none:"?" ~some:Bjson.to_string (Bjson.member k h))
      Runner.host_class_keys
    |> String.concat ","

type verdict = Ok_ | Worse | Unresolved | Differs

let verdict_name = function
  | Ok_ -> "ok"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Differs -> "differs"

(** Compare one metric across the two sets. *)
let judge ~better ~bound ~floor (a : float array) (b : float array) =
  let ma = Stats.median a and mb = Stats.median b in
  if Stats.within ~better ~bound ~floor ~base:ma ~now:mb () then Ok_
  else
    let lo x = Array.fold_left Float.min Float.infinity x
    and hi x = Array.fold_left Float.max Float.neg_infinity x in
    if lo a <= hi b && lo b <= hi a then Unresolved else Worse

(** Names of the work counters that differ between two runs. *)
let differing_work ra rb =
  match (Bjson.member "work" ra, Bjson.member "work" rb) with
  | Some (Bjson.Obj wa), Some (Bjson.Obj wb) ->
    List.filter_map
      (fun (k, v) -> if List.assoc_opt k wb = Some v then None else Some k)
      wa
  | _ -> [ "(missing)" ]

let run (a_path : string) (b_path : string) : int =
  let untraced runs =
    List.filter
      (fun r -> Bjson.member "trace" r <> Some (Bjson.Bool true))
      runs
  in
  let a = untraced (load a_path) and b = untraced (load b_path) in
  let classes runs = List.sort_uniq compare (List.map host_class runs) in
  let same_host = classes a = classes b && List.length (classes a) = 1 in
  if not same_host then
    Printf.printf
      "host class differs (%s vs %s): wall-clock and memory metrics SKIPPED, \
       work counters only\n"
      (String.concat "; " (classes a))
      (String.concat "; " (classes b));
  let bad = ref 0 in
  let report w name detail v =
    if v = Worse || v = Differs then incr bad;
    Printf.printf "%-12s %-22s %-46s %s\n" w name detail (verdict_name v)
  in
  let compare_workload w =
    let of_w runs = List.filter (fun r -> str "workload" r = w) runs in
    let aw = of_w a and bw = of_w b in
    if aw = [] || bw = [] then
      Printf.printf "%-12s only in one set, not compared\n" w
    else begin
      if same_host then
        List.iter
          (fun ({ m_name = name; better; bound; _ } : Runner.metric) ->
            let vals runs =
              Array.of_list (List.filter_map (metric name) runs)
            in
            let va = vals aw and vb = vals bw in
            if Array.length va > 0 && Array.length vb > 0 then
              let ma = Stats.median va and mb = Stats.median vb in
              let detail =
                Printf.sprintf "%.4g -> %.4g (%+.1f%%, bound %.0f%%)" ma mb
                  (100. *. ((mb /. ma) -. 1.))
                  (100. *. bound)
              in
              report w name detail
                (judge ~better ~bound ~floor:(Runner.floor_of name) va vb))
          Runner.e2e;
      (* work counters: deterministic per seed *)
      let seeds = List.sort_uniq compare (List.filter_map (num "seed") aw) in
      List.iter
        (fun seed ->
          let at = List.find_opt (fun r -> num "seed" r = Some seed) in
          match (at aw, at bw) with
          | Some ra, Some rb ->
            let differing = differing_work ra rb in
            report w
              (Printf.sprintf "work@seed%.0f" seed)
              (if differing = [] then "identical"
               else String.concat "," differing)
              (if differing = [] then Ok_ else Differs)
          | _ -> ())
        seeds
    end
  in
  List.iter compare_workload
    (List.sort_uniq compare (List.map (str "workload") (a @ b)));
  if !bad > 0 then 1 else 0

(** Medians, quartiles and spread (IQR / median) of every end-to-end
    metric per workload over a set of runs: the acceptance statistics. *)
let summarize (paths : string list) : Bjson.t =
  let runs = List.concat_map load paths in
  let summary rw (m : Runner.metric) =
    let xs = Array.of_list (List.filter_map (metric m.m_name) rw) in
    let q1, q3 =
      Option.value ~default:(Float.nan, Float.nan) (Stats.quartiles xs)
    in
    ( m.m_name,
      Bjson.Obj
        [
          ("n", Bjson.Num (float_of_int (Array.length xs)));
          ("median", Bjson.Num (Stats.median xs));
          ("q1", Bjson.Num q1);
          ("q3", Bjson.Num q3);
          ( "spread",
            Bjson.Num (Option.value ~default:Float.nan (Stats.spread xs)) );
        ] )
  in
  Bjson.Obj
    (List.map
       (fun w ->
         let rw = List.filter (fun r -> str "workload" r = w) runs in
         (w, Bjson.Obj (List.map (summary rw) Runner.e2e)))
       (List.sort_uniq compare (List.map (str "workload") runs)))
