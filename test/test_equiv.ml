(** Lemma 9: preemptive ≈ non-preemptive for DRF programs — and its
    failure on racy programs, showing the DRF hypothesis is necessary. *)

open Cas_base
open Cas_conc

let check = Alcotest.check
let tbool = Alcotest.bool

let traces_of p =
  match Refine.traces_of_pre ~max_steps:3000 p with
  | Ok (t, _) -> t
  | Error e -> Alcotest.failf "load: %a" World.pp_load_error e

let np_traces_of p =
  match Refine.traces_of_np ~max_steps:3000 p with
  | Ok t -> t
  | Error e -> Alcotest.failf "load: %a" World.pp_load_error e

let test_equiv_on_drf_suite () =
  List.iter
    (fun input ->
      let p = Cascompcert.Framework.source_prog input in
      let pre = traces_of p in
      let np = np_traces_of p in
      let r = Refine.equiv pre np in
      check tbool (Fmt.str "%s preemptive ≈ NP" input.Cascompcert.Framework.name)
        true r.Refine.holds)
    (List.filter
       (fun i -> i.Cascompcert.Framework.name <> "producer-consumer")
       (Corpus.framework_inputs ()))

let test_racy_program_differs () =
  (* writer: x=1; x=2 ∥ reader: print(x). Under preemption the reader can
     observe the intermediate 1; non-preemptively it cannot. *)
  let p = Corpus.observer_prog () in
  let pre = traces_of p in
  let np = np_traces_of p in
  check tbool "preemptive sees x=1" true
    (Explore.TraceSet.mem ([ Event.Print 1 ], Explore.SDone) pre.Explore.traces);
  check tbool "non-preemptive cannot" false
    (Explore.TraceSet.mem ([ Event.Print 1 ], Explore.SDone) np.Explore.traces);
  let r = Refine.equiv pre np in
  check tbool "equivalence fails without DRF" false r.Refine.holds

let test_np_refines_preemptive_always () =
  (* even for racy programs, every NP behaviour is a preemptive one *)
  List.iter
    (fun (name, p) ->
      let pre = traces_of p in
      let np = np_traces_of p in
      let r = Refine.refines ~lhs:np ~rhs:pre in
      check tbool (Fmt.str "%s NP ⊑ preemptive" name) true r.Refine.holds)
    [
      ("locked", Corpus.lock_counter_prog ());
      ("observer", Corpus.observer_prog ());
      ("racy", Corpus.racy_prog ());
    ]

let test_refine_report_prefixes () =
  let es = [ Event.Print 1; Event.Print 2 ] in
  let ps = Refine.prefixes es in
  check Alcotest.int "three prefixes incl. empty" 3 (List.length ps);
  check tbool "empty prefix" true (List.mem [] ps);
  check tbool "full prefix" true (List.mem es ps)

let test_trace_set_ops () =
  let t1 = ([ Event.Print 1 ], Explore.SDone) in
  let t2 = ([ Event.Print 2 ], Explore.SDone) in
  let s1 = Explore.TraceSet.add t1 Explore.TraceSet.empty in
  let s12 = Explore.TraceSet.add t2 s1 in
  check tbool "subset" true (Explore.TraceSet.subset s1 s12);
  check tbool "not subset" false (Explore.TraceSet.subset s12 s1);
  check tbool "status distinguishes" false
    (Explore.TraceSet.mem ([ Event.Print 1 ], Explore.SCut) s1)

let () =
  Alcotest.run "equiv"
    [
      ( "lemma 9",
        [
          Alcotest.test_case "DRF suite" `Slow test_equiv_on_drf_suite;
          Alcotest.test_case "racy counterexample" `Quick
            test_racy_program_differs;
          Alcotest.test_case "NP always refines" `Quick
            test_np_refines_preemptive_always;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "prefixes" `Quick test_refine_report_prefixes;
          Alcotest.test_case "trace sets" `Quick test_trace_set_ops;
        ] );
    ]
