(** The paper's figures and its one table, printed from the executable
    stand-ins. The paper's evaluation is a Coq development, so its
    reproducible artifacts are statements, not timings:

    - Fig. 13 — the lines-of-code table, with the paper's Coq numbers
      next to this reproduction's OCaml numbers;
    - Fig. 11 — the compilation passes, with the per-pass
      footprint-preserving simulation verdicts over the corpus;
    - Fig. 2 — the framework's proof steps as checks on the concurrent
      corpus (Fig. 9's race predictor decides its DRF arrows);
    - the non-preemptive semantics' reduction of the state space, the
      quantitative reason Lemma 9 matters;
    - Fig. 3 — the extended framework on x86-TSO: Lemma 16 for the TTAS
      lock of Fig. 10 and its fenced variant, and the object simulation.

    [dune runtest] asserts each of these; this prints them. Performance
    is measured by casbench (BENCHMARK.json), not here.

    Run from the repository root (Fig. 13 counts lines of lib/):
    dune exec examples/figures.exe *)

open Cas_base
open Cas_langs
open Cas_conc
module Corpus = Cas_corpus.Corpus
module Framework = Cascompcert.Framework

(* ------------------------------------------------------------------ *)
(* Fig. 13: lines of code                                              *)
(* ------------------------------------------------------------------ *)

(* (pass, CompCert spec, their spec, CompCert proof, their proof), in
   lines of Coq *)
let fig13_paper =
  [
    ("Cshmgen", 515, 1021, 1071, 1503);
    ("Cminorgen", 753, 1556, 1152, 1251);
    ("Selection", 336, 500, 647, 783);
    ("RTLgen", 428, 543, 821, 862);
    ("Tailcall", 173, 328, 275, 405);
    ("Renumber", 86, 245, 117, 358);
    ("Allocation", 704, 785, 1410, 1700);
    ("Tunneling", 131, 339, 166, 475);
    ("Linearize", 236, 371, 349, 733);
    ("CleanupLabels", 126, 387, 161, 388);
    ("Stacking", 730, 1038, 1108, 2135);
    ("Asmgen", 208, 338, 571, 1128);
  ]

(* (component, their spec, their proof, our files) *)
let fig13_framework =
  [
    ( "Compositionality (Lem. 6)",
      580,
      2249,
      [ "lib/core/simulation.ml"; "lib/core/framework.ml" ] );
    ("DRF preservation (Lem. 8)", 358, 1142, [ "lib/conc/race.ml" ]);
    ( "Semantics equiv. (Lem. 9)",
      1540,
      4718,
      [
        "lib/conc/preemptive.ml";
        "lib/conc/nonpreemptive.ml";
        "lib/conc/explore.ml";
        "lib/conc/refine.ml";
      ] );
    ("Lifting", 813, 1795, [ "lib/conc/world.ml"; "lib/conc/gsem.ml" ]);
  ]

let our_pass_files = function
  | "Allocation" -> [ "lib/compiler/allocation.ml"; "lib/compiler/liveness.ml" ]
  | pass -> [ Fmt.str "lib/compiler/%s.ml" (String.lowercase_ascii pass) ]

(* non-blank lines; 0 when a file is missing (not run from the root) *)
let loc_of_file path =
  if not (Sys.file_exists path) then 0
  else
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
    |> List.length

let loc files = List.fold_left (fun acc f -> acc + loc_of_file f) 0 files
let loc_column files =
  match loc files with 0 -> "n/a" | n -> string_of_int n

let fig13 () =
  Fmt.pr "@.=== FIG 13 — lines of code (paper: Coq; ours: OCaml) ===@.";
  Fmt.pr "%-28s %22s %22s %10s@." "pass" "paper spec (CC/ours)"
    "paper proof (CC/ours)" "this repo";
  List.iter
    (fun (name, sc, so, pc, po) ->
      Fmt.pr "%-28s %12d / %5d %13d / %5d %10s@." name sc so pc po
        (loc_column (our_pass_files name)))
    fig13_paper;
  Fmt.pr "-- framework components --@.";
  List.iter
    (fun (name, sp, pr, files) ->
      Fmt.pr "%-28s %12s / %5d %13s / %5d %10s@." name "-" sp "-" pr
        (loc_column files))
    fig13_framework;
  Fmt.pr
    "(paper columns are Coq spec+proof lines; ours are OCaml implementation \
     lines —@.the proofs are replaced by the executable checkers and the test \
     suite)@."

(* ------------------------------------------------------------------ *)
(* Fig. 11: per-pass simulation verdicts                               *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  Fmt.pr "@.=== FIG 11 — compilation passes ===@.";
  let reports =
    List.concat_map
      (fun (_, client, _) -> Framework.check_passes client)
      (Corpus.sequential_clients ())
  in
  let count p = List.length (List.filter p reports) in
  let ok (r : Framework.pass_sim_report) =
    Framework.sim_ok r.verdict.v_outcome
  in
  let inconclusive (r : Framework.pass_sim_report) =
    match r.verdict.v_outcome with
    | Cascompcert.Simulation.Sim_inconclusive _ -> true
    | Sim_ok _ | Sim_fail _ -> false
  in
  Fmt.pr
    "footprint-preserving simulation: %d/%d checks ok (%d inconclusive, %d \
     failures)@."
    (count ok) (List.length reports) (count inconclusive)
    (List.length reports - count ok - count inconclusive);
  Fmt.pr "%-16s %s@." "pass" "sim checks ok";
  List.sort_uniq compare
    (List.map (fun (r : Framework.pass_sim_report) -> r.pass) reports)
  |> List.iter (fun pass ->
         let of_pass p (r : Framework.pass_sim_report) = r.pass = pass && p r in
         Fmt.pr "  %-16s %d ok, %d inconclusive@." pass (count (of_pass ok))
           (count (of_pass inconclusive)))

(* ------------------------------------------------------------------ *)
(* Fig. 2: the framework's steps on the concurrent corpus              *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  Fmt.pr "@.=== FIG 2 — framework steps on the concurrent corpus ===@.";
  List.iter
    (fun (input : Framework.input) ->
      if input.name <> "producer-consumer" then
        Fmt.pr "%a@." Framework.pp_run (Framework.check_fig2 input))
    (Corpus.framework_inputs ())

(* ------------------------------------------------------------------ *)
(* The non-preemptive reduction (Lemma 9)                              *)
(* ------------------------------------------------------------------ *)

let np_reduction () =
  Fmt.pr
    "@.=== NP-semantics reduction — why Lemma 9 matters quantitatively ===@.";
  Fmt.pr "%-24s %7s %9s %9s %7s %9s %9s %7s@." "program" "threads" "preempt"
    "np" "np-x" "dpor" "dpor-par" "dpor-x";
  let counter_3 =
    Lang.prog
      [
        Lang.Mod (Clight.lang, Corpus.counter ());
        Lang.Mod (Cimp.lang, Corpus.gamma_lock ());
      ]
      [ "inc"; "inc"; "inc" ]
  in
  let prints n =
    Lang.prog
      [
        Lang.Mod
          (Clight.lang, Parse.clight {| void f() { print(1); print(2); } |});
      ]
      (List.init n (fun _ -> "f"))
  in
  List.iter
    (fun (name, n, p) ->
      match World.load p ~args:[] with
      | Error _ -> ()
      | Ok w ->
        let worlds (st : Cas_mc.Stats.t) = st.worlds in
        let mc engine =
          worlds (Engine.explore ~engine ~max_worlds:400_000 w ~visit:ignore)
        in
        let pre = mc Engine.Naive in
        let np =
          worlds (Engine.np_explore ~max_worlds:400_000 w ~visit:ignore)
        in
        let dpor = mc Engine.Dpor and dpor_par = mc Engine.Dpor_par in
        let ratio a b = float_of_int a /. float_of_int (max 1 b) in
        Fmt.pr "%-24s %7d %9d %9d %6.1fx %9d %9d %6.1fx@." name n pre np
          (ratio pre np) dpor dpor_par (ratio pre dpor))
    [
      ("lock-counter", 2, Corpus.lock_counter_prog ());
      ("lock-counter-3", 3, counter_3);
      ("prints-2", 2, prints 2);
      ("prints-3", 3, prints 3);
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: x86-TSO and the TTAS lock                                   *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  Fmt.pr "@.=== FIG 3 — extended framework: x86-TSO and the TTAS lock ===@.";
  let client = Cas_compiler.Driver.compile (Corpus.counter ()) in
  let gamma = Corpus.gamma_lock () in
  Fmt.pr "%-14s %-36s %12s %12s@." "lock" "Lemma 16 (TSO+pi <= SC+gamma)"
    "TSO worlds" "dpor worlds";
  List.iter
    (fun (name, pi) ->
      let g =
        Cas_tso.Objsim.check_drf_guarantee ~max_steps:2500 ~clients:[ client ]
          ~pi ~gamma ~entries:[ "inc"; "inc" ] ()
      in
      let explore engine =
        match Cas_tso.Tso.load [ client; pi ] [ "inc"; "inc" ] with
        | Error _ -> Cas_mc.Stats.zero ~engine:(Engine.to_string engine)
        | Ok w ->
          Cas_tso.Tso.explore ~engine ~max_worlds:400_000 w ~visit:ignore
      in
      let naive = explore Engine.Naive and dpor = explore Engine.Dpor in
      (* the spinning TTAS loop violates the DPOR acyclicity precondition:
         worlds shrink but the path budget truncates, marked with a star *)
      Fmt.pr "%-14s %-36s %12d %11d%s@." name
        (if g.Cas_tso.Objsim.holds then "holds" else "FAILS")
        naive.worlds dpor.worlds
        (if dpor.truncated then "*" else " "))
    [
      ("TTAS", Cas_tso.Locks.pi_lock);
      ("TTAS+fence", Cas_tso.Locks.pi_lock_fenced);
    ];
  Fmt.pr "object simulation pi_lock <=o gamma_lock:@.";
  List.iter
    (fun r -> Fmt.pr "  %a@." Cas_tso.Objsim.pp_obj_sim r)
    (Cas_tso.Objsim.check_object_sim ~pi:Cas_tso.Locks.pi_lock ~gamma
       ~entries:[ ("lock", [ 0; 1 ]); ("unlock", [ 0 ]) ]
       ())

let () =
  Fmt.pr "CASCompCert reproduction — the paper's figures and its one table@.";
  Fmt.pr "(one section per paper figure/table; see EXPERIMENTS.md)@.";
  fig13 ();
  fig11 ();
  fig2 ();
  np_reduction ();
  fig3 ()
