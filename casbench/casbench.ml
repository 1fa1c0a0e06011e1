(** casbench — the repository's benchmark.

    {v
    casbench run --workload W [--seed N] [--seconds S] [--trace 0|1]
                 [--json FILE] [--trace-file FILE] [--casc EXE]
    casbench compare A B
    casbench summarize RUNS...
    casbench pin [--out FILE]
    casbench spec
    v}

    [run] is the default command, so [casbench --workload W ...] works
    too; see casbench/README.md. *)

open Cmdliner
open Casbench_lib

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

(** The [casc] executable the cascd workload serves with: [--casc], or
    the sibling of this executable in the dune build tree. *)
let find_casc = function
  | Some path -> path
  | None ->
    let root = Filename.dirname (Filename.dirname Sys.executable_name) in
    Filename.concat root "bin/casc.exe"

let write_file path contents =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let run workload seed seconds trace json trace_file casc =
  match Runner.find_workload workload with
  | None ->
    Printf.eprintf "casbench: unknown workload %S (%s)\n" workload
      (String.concat ", "
         (List.map (fun (w : Runner.workload) -> w.name) Runner.workloads));
    2
  | Some w -> (
    let tracing = trace <> 0 in
    match
      Runner.run ~workload:w ~seed ~seconds:(float_of_int seconds) ~tracing
        ~casc:(find_casc casc) ()
    with
    | exception e ->
      Printf.eprintf "casbench: %s failed: %s\n" workload
        (Printexc.to_string e);
      1
    | r ->
      Runner.print_report r;
      Option.iter
        (fun f ->
          write_file f (Bjson.to_string ~indent:2 (Runner.to_json r) ^ "\n"))
        json;
      if tracing then begin
        let f =
          Option.value trace_file
            ~default:
              (Printf.sprintf ".casbench/trace-%s-seed%d.json" workload seed)
        in
        write_file f (Bjson.to_string (Meter.chrome r.m.meter));
        Printf.printf "chrome trace: %s\n" f
      end;
      print_endline (Runner.summary_line r);
      if Runner.correct r then 0 else 1)

let run_term =
  let opt_string names docv doc =
    Arg.(value & opt (some string) None & info names ~docv ~doc)
  in
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload"; "w" ] ~docv:"NAME" ~doc:"workload to run")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"input seed") in
  let seconds =
    Arg.(
      value
      & opt int Runner.run_seconds
      & info [ "seconds" ] ~doc:"how long to measure (at least one pass runs)")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:
            "1: time each layer, print the per-layer metrics and write a \
             Chrome trace")
  in
  Term.(
    const run $ workload $ seed $ seconds $ trace
    $ opt_string [ "json" ] "FILE" "write the full result"
    $ opt_string [ "trace-file" ] "FILE" "Chrome trace output"
    $ opt_string [ "casc" ] "EXE" "casc executable to serve with")

(* ------------------------------------------------------------------ *)
(* compare / summarize                                                 *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let side n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"judge run set B against run set A under the benchmark's bounds")
    Term.(const Compare.run $ side 0 "A" $ side 1 "B")

let summarize_cmd =
  let paths = Arg.(non_empty & pos_all string [] & info [] ~docv:"RUNS") in
  Cmd.v
    (Cmd.info "summarize"
       ~doc:"medians, quartiles and spreads of a set of runs")
    Term.(
      const (fun paths ->
          print_endline (Bjson.to_string ~indent:2 (Compare.summarize paths));
          0)
      $ paths)

(* ------------------------------------------------------------------ *)
(* pin: golden answers for seed 1                                      *)
(* ------------------------------------------------------------------ *)

let pin out =
  let open Cas_conc in
  let seed = 1 and golden : Golden.t = Hashtbl.create 1024 in
  let count name =
    match Runner.find_workload name with
    | Some { kind = Runner.Pool p; _ } -> p.count
    | _ -> assert false
  in
  let meter = Meter.create ~tracing:false in
  List.iter
    (fun ((p : Corpus.program), expect) ->
      if expect = None then
        match Workloads.load meter p with
        | Error _ -> ()
        | Ok w -> (
          let r engine = Race.drf ~engine w in
          match (r Engine.Naive, r Engine.Dpor) with
          | n, d
            when (not n.stats.truncated) && (not d.stats.truncated)
                 && n.drf = d.drf ->
            Hashtbl.replace golden (Workloads.drf_key p) n.drf
          | _ -> ()))
    (Workloads.drf_programs ~seed ~count:(count "drf-dpor"));
  List.iter
    (fun ((p : Corpus.program), pis) ->
      if p.label <> "counter" then
        let asm =
          Cas_compiler.Driver.compile
            (Cas_langs.Parse.clight (List.hd p.sources))
        in
        List.iter
          (fun (pi_name, pi) ->
            let g engine =
              Workloads.guarantee meter ~engine ~asm ~pi ~entries:p.entries
            in
            match (g Engine.Naive, g Engine.Dpor) with
            | Ok (h1, true), Ok (h2, true) when h1 = h2 ->
              Hashtbl.replace golden (Workloads.tso_key p ~pi:pi_name) h1
            | _ -> ())
          pis)
    (Workloads.tso_programs ~seed ~count:(count "tso-lemma16"));
  write_file out
    (Bjson.to_string ~indent:2 (Golden.to_json ~seed golden) ^ "\n");
  Printf.printf "pinned %d answers to %s\n" (Hashtbl.length golden) out;
  0

let pin_cmd =
  let out =
    Arg.(
      value
      & opt string "casbench/golden/seed1.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"output")
  in
  Cmd.v
    (Cmd.info "pin" ~doc:"recompute the pinned seed-1 answers")
    Term.(const pin $ out)

(* ------------------------------------------------------------------ *)
(* spec: BENCHMARK.json from the tables in Runner                      *)
(* ------------------------------------------------------------------ *)

let spec_cmd =
  Cmd.v
    (Cmd.info "spec"
       ~doc:"print the BENCHMARK.json these workloads and metrics define")
    Term.(
      const (fun () ->
          print_endline (Bjson.to_string ~indent:2 (Runner.spec ()));
          0)
      $ const ())

let () =
  let info = Cmd.info "casbench" ~doc:"the repository's benchmark" in
  exit
    (Cmd.eval'
       (Cmd.group ~default:run_term info
          [
            Cmd.v
              (Cmd.info "run"
                 ~doc:"run one workload for one seed (the default command)")
              run_term;
            compare_cmd;
            summarize_cmd;
            pin_cmd;
            spec_cmd;
          ]))
