(** End-to-end framework tests: the Fig. 2 pipeline on the corpus of
    concurrent programs, and per-pass simulations across the whole
    compiler for every corpus client (the executable analogue of
    Lem. 13 and Thm. 12/14). *)

open Cas_base
open Cascompcert

let check = Alcotest.check
let tbool = Alcotest.bool

let small_bounds =
  { Framework.max_steps = 2500; max_paths = 100_000; max_worlds = 100_000 }

let test_fig2_suite () =
  List.iter
    (fun input ->
      let run = Framework.check_fig2 ~bounds:small_bounds input in
      List.iter
        (fun r ->
          check tbool
            (Fmt.str "%s [%s] %s" input.Framework.name r.Framework.id
               r.Framework.label)
            true r.Framework.ok)
        run.Framework.reports)
    (List.filter
       (fun i -> i.Framework.name <> "producer-consumer")
       (Corpus.framework_inputs ()))

let test_fig2_detects_racy_source () =
  (* the DRF premise must fail on the racy counter *)
  let input =
    {
      Framework.name = "racy";
      clients = [ Corpus.racy_counter () ];
      objects = [];
      entries = [ "inc"; "inc" ];
    }
  in
  let run = Framework.check_fig2 ~bounds:small_bounds input in
  let pre = List.find (fun r -> r.Framework.id = "pre") run.Framework.reports in
  check tbool "DRF premise fails on racy program" false pre.Framework.ok

let test_passes_on_corpus () =
  List.iter
    (fun (name, client, _) ->
      let reports = Framework.check_passes client in
      List.iter
        (fun r ->
          check tbool
            (Fmt.str "%s %s/%s" name r.Framework.pass r.Framework.entry)
            true
            (Framework.sim_ok r.Framework.verdict.v_outcome))
        reports)
    (Corpus.sequential_clients ())

let test_passes_with_arguments () =
  (* drive parameterized entries with several argument vectors *)
  let p = Corpus.fib () in
  let asm = Cas_compiler.Driver.compile p in
  List.iter
    (fun n ->
      let o =
        Simulation.check ~src:(Cas_langs.Clight.lang, p)
          ~tgt:(Cas_langs.Asm.lang, asm) ~entry:"fib"
          ~args:[ Value.Vint n ] ()
      in
      check tbool (Fmt.str "fib(%d) simulates" n) true
        (match o with Simulation.Sim_fail _ -> false | _ -> true))
    [ 0; 1; 5; 9 ]

let test_unoptimized_pipeline_also_correct () =
  let options = { Cas_compiler.Driver.optimize = false } in
  List.iter
    (fun input ->
      let run = Framework.check_fig2 ~bounds:small_bounds ~options input in
      check tbool
        (Fmt.str "%s without optimizations" input.Framework.name)
        true run.Framework.all_ok)
    [ List.hd (Corpus.framework_inputs ()) ]

let () =
  Alcotest.run "framework"
    [
      ( "fig2",
        [
          Alcotest.test_case "DRF suite" `Slow test_fig2_suite;
          Alcotest.test_case "racy premise fails" `Quick
            test_fig2_detects_racy_source;
          Alcotest.test_case "unoptimized pipeline" `Slow
            test_unoptimized_pipeline_also_correct;
        ] );
      ( "passes",
        [
          Alcotest.test_case "corpus sweep" `Slow test_passes_on_corpus;
          Alcotest.test_case "parameterized entries" `Quick
            test_passes_with_arguments;
        ] );
    ]
