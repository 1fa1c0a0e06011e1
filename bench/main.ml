(** Benchmark harness regenerating the paper's figures and its one table.

    The paper's evaluation is a Coq development, so its reproducible
    artifacts are:

    - Fig. 2 / Fig. 3 — the framework's proof steps, here timed as
      executable checks ([fig2-checks], [fig3-tso]);
    - Fig. 9 — the race predictor ([fig2-checks] includes DRF);
    - Fig. 10 — the lock example, exercised by [fig3-tso];
    - Fig. 11 — the verified compilation passes: we run and time every
      pass, and report per-pass simulation verdicts ([fig11-passes]);
    - Fig. 13 — the lines-of-code table: reproduced with the paper's Coq
      numbers next to this reproduction's OCaml numbers ([fig13-loc]);
    - plus the quantitative phenomenon motivating the whole design: the
      non-preemptive semantics explores dramatically fewer interleavings
      than the preemptive one ([npsem-reduction]), and the TTAS lock's
      benign race against its fenced variant ([lock-ablation]).

    Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Cas_base
open Cas_langs
open Cas_conc
module Corpus = Cas_corpus.Corpus

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable results                               *)
(* ------------------------------------------------------------------ *)

(* Collected as the sections run, dumped at the end when --json is
   given: every bechamel timing row, and every world count so the
   engine-vs-naive reduction is machine-checkable. *)
let json_benchmarks : (string * int * float) list ref = ref []
let json_worlds : (string * string * int) list ref = ref []

(* per-pass rows of the compile section: (pass, cold ns, warm-run cache
   hits, warm-run cache misses) *)
let json_compile : (string * float * int * int) list ref = ref []

(* diag section: (program, drf ns, capture ns, overhead pct) *)
let json_diag : (string * float * float * float) list ref = ref []

(* diag section: (program, orig steps, min steps, orig switches,
   min switches, attempts) *)
let json_shrink : (string * int * int * int * int * int) list ref = ref []

(* link section: (case, ns, verdicts, cached verdicts, checker steps) *)
let json_link : (string * float * int * int * int) list ref = ref []

(* recert section: (case, ns, verdicts, cached verdicts, checker steps) *)
let json_recert : (string * float * int * int * int) list ref = ref []

(* serve section: flat (metric, value) gauges of the load run *)
let json_serve : (string * float) list ref = ref []

(* fuzz section: flat (metric, value) gauges of the campaign *)
let json_fuzz : (string * float) list ref = ref []

let record_worlds ~program ~engine worlds =
  json_worlds := (program, engine, worlds) :: !json_worlds

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  let sep first = if !first then first := false else pr ",\n" in
  pr "{\n  \"benchmarks\": [\n";
  let first = ref true in
  List.iter
    (fun (name, runs, ns) ->
      sep first;
      pr "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_run\": %.2f}"
        (json_escape name) runs ns)
    (List.rev !json_benchmarks);
  pr "\n  ],\n  \"worlds\": [\n";
  let first = ref true in
  List.iter
    (fun (program, engine, worlds) ->
      sep first;
      pr "    {\"program\": \"%s\", \"engine\": \"%s\", \"worlds\": %d}"
        (json_escape program) (json_escape engine) worlds)
    (List.rev !json_worlds);
  pr "\n  ],\n  \"compile\": [\n";
  let first = ref true in
  List.iter
    (fun (pass, ns, hits, misses) ->
      sep first;
      pr
        "    {\"pass\": \"%s\", \"ns_per_unit\": %.2f, \"cache_hits\": %d, \
         \"cache_misses\": %d}"
        (json_escape pass) ns hits misses)
    (List.rev !json_compile);
  pr "\n  ],\n  \"diag\": [\n";
  let first = ref true in
  List.iter
    (fun (program, drf_ns, cap_ns, pct) ->
      sep first;
      pr
        "    {\"program\": \"%s\", \"drf_ns\": %.2f, \"capture_ns\": %.2f, \
         \"overhead_pct\": %.2f}"
        (json_escape program) drf_ns cap_ns pct)
    (List.rev !json_diag);
  pr "\n  ],\n  \"shrink\": [\n";
  let first = ref true in
  List.iter
    (fun (program, os, ms, osw, msw, att) ->
      sep first;
      pr
        "    {\"program\": \"%s\", \"orig_steps\": %d, \"min_steps\": %d, \
         \"orig_switches\": %d, \"min_switches\": %d, \"attempts\": %d}"
        (json_escape program) os ms osw msw att)
    (List.rev !json_shrink);
  pr "\n  ],\n  \"link\": [\n";
  let first = ref true in
  List.iter
    (fun (case, ns, verdicts, cached, steps) ->
      sep first;
      pr
        "    {\"case\": \"%s\", \"ns_per_link\": %.2f, \"verdicts\": %d, \
         \"cached_verdicts\": %d, \"checker_steps\": %d}"
        (json_escape case) ns verdicts cached steps)
    (List.rev !json_link);
  pr "\n  ],\n  \"recert\": [\n";
  let first = ref true in
  List.iter
    (fun (case, ns, verdicts, cached, steps) ->
      sep first;
      pr
        "    {\"case\": \"%s\", \"ns_per_recert\": %.2f, \"verdicts\": %d, \
         \"cached_verdicts\": %d, \"checker_steps\": %d}"
        (json_escape case) ns verdicts cached steps)
    (List.rev !json_recert);
  pr "\n  ],\n  \"serve\": [\n";
  let first = ref true in
  List.iter
    (fun (metric, value) ->
      sep first;
      pr "    {\"metric\": \"%s\", \"value\": %.2f}" (json_escape metric) value)
    (List.rev !json_serve);
  pr "\n  ],\n  \"fuzz\": [\n";
  let first = ref true in
  List.iter
    (fun (metric, value) ->
      sep first;
      pr "    {\"metric\": \"%s\", \"value\": %.2f}" (json_escape metric) value)
    (List.rev !json_fuzz);
  pr "\n  ]\n}\n";
  close_out oc;
  Fmt.pr "@.json results written to %s@." path

(* ------------------------------------------------------------------ *)
(* Bechamel helpers                                                    *)
(* ------------------------------------------------------------------ *)

let run_group ~name (tests : Test.t list) : (string * float) list =
  let test = Test.make_grouped ~name ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let runs_of k =
    match Hashtbl.find_opt raw k with
    | Some b -> Array.length b.Benchmark.lr
    | None -> 0
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun k v acc ->
        match Analyze.OLS.estimates v with
        | Some (t :: _) -> (k, t) :: acc
        | _ -> acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (k, t) -> json_benchmarks := (k, runs_of k, t) :: !json_benchmarks)
    rows;
  rows

let pp_ns ppf t =
  if t > 1e9 then Fmt.pf ppf "%8.2f s " (t /. 1e9)
  else if t > 1e6 then Fmt.pf ppf "%8.2f ms" (t /. 1e6)
  else if t > 1e3 then Fmt.pf ppf "%8.2f us" (t /. 1e3)
  else Fmt.pf ppf "%8.0f ns" t

let print_timings title rows =
  Fmt.pr "@.--- %s ---@." title;
  List.iter (fun (name, t) -> Fmt.pr "  %-48s %a@." name pp_ns t) rows

let staged f = Staged.stage f

(* ------------------------------------------------------------------ *)
(* fig11-passes: run & time every compilation pass                      *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  Fmt.pr "@.=== FIG 11 — compilation passes ===@.";
  (* correctness: per-pass simulation verdicts over the corpus *)
  let total = ref 0 and ok = ref 0 and inconclusive = ref 0 in
  let per_pass : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, client, _) ->
      List.iter
        (fun r ->
          incr total;
          let o, i =
            Option.value ~default:(0, 0)
              (Hashtbl.find_opt per_pass r.Cascompcert.Framework.pass)
          in
          match r.Cascompcert.Framework.outcome with
          | Cascompcert.Simulation.Sim_ok _ ->
            incr ok;
            Hashtbl.replace per_pass r.Cascompcert.Framework.pass (o + 1, i)
          | Cascompcert.Simulation.Sim_inconclusive _ ->
            incr inconclusive;
            Hashtbl.replace per_pass r.Cascompcert.Framework.pass (o, i + 1)
          | Cascompcert.Simulation.Sim_fail _ ->
            Hashtbl.replace per_pass r.Cascompcert.Framework.pass (o, i))
        (Cascompcert.Framework.check_passes client))
    (Corpus.sequential_clients ());
  Fmt.pr
    "footprint-preserving simulation: %d/%d checks ok (%d inconclusive, 0 \
     failures)@."
    !ok !total !inconclusive;
  Fmt.pr "%-16s %s@." "pass" "sim checks ok";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_pass []
  |> List.sort compare
  |> List.iter
       (fun (p, (o, i)) -> Fmt.pr "  %-16s %d ok, %d inconclusive@." p o i);
  (* speed: per-pass transformation time on the fused corpus program *)
  let big : Clight.program =
    let clients =
      List.map (fun (_, c, _) -> c) (Corpus.sequential_clients ())
    in
    {
      Clight.funcs = List.concat_map (fun c -> c.Clight.funcs) clients;
      globals =
        (match Genv.link (List.map (fun c -> c.Clight.globals) clients) with
        | Ok ge -> List.map (fun (_, _, g) -> g) (Genv.bindings ge)
        | Error _ -> []);
    }
  in
  let a = Cas_compiler.Driver.compile_artifacts big in
  let open Cas_compiler in
  print_timings "per-pass transformation time (fused corpus)"
    (run_group ~name:"fig11"
       [
         Test.make ~name:"SimplLocals" (staged (fun () -> Simpllocals.compile big));
         Test.make ~name:"Cshmgen" (staged (fun () -> Cshmgen.compile a.Driver.clight_simpl));
         Test.make ~name:"Cminorgen" (staged (fun () -> Cminorgen.compile a.Driver.csharpminor));
         Test.make ~name:"Selection" (staged (fun () -> Selection.compile a.Driver.cminor));
         Test.make ~name:"RTLgen" (staged (fun () -> Rtlgen.compile a.Driver.cminorsel));
         Test.make ~name:"Tailcall" (staged (fun () -> Tailcall.compile a.Driver.rtl));
         Test.make ~name:"Renumber" (staged (fun () -> Renumber.compile a.Driver.rtl_tailcall));
         Test.make ~name:"ConstProp" (staged (fun () -> Constprop.compile a.Driver.rtl_renumber));
         Test.make ~name:"CSE" (staged (fun () -> Cse.compile a.Driver.rtl_constprop));
         Test.make ~name:"Deadcode" (staged (fun () -> Deadcode.compile a.Driver.rtl_cse));
         Test.make ~name:"Allocation" (staged (fun () -> Allocation.compile a.Driver.rtl_deadcode));
         Test.make ~name:"Tunneling" (staged (fun () -> Tunneling.compile a.Driver.ltl));
         Test.make ~name:"Linearize" (staged (fun () -> Linearize.compile a.Driver.ltl_tunneled));
         Test.make ~name:"CleanupLabels" (staged (fun () -> Cleanuplabels.compile a.Driver.linear));
         Test.make ~name:"Stacking" (staged (fun () -> Stacking.compile a.Driver.linear_clean));
         Test.make ~name:"Asmgen" (staged (fun () -> Asmgen.compile a.Driver.mach));
         Test.make ~name:"whole-pipeline" (staged (fun () -> Driver.compile big));
       ])

(* ------------------------------------------------------------------ *)
(* fig2-checks: the framework steps as checks, with timings             *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  Fmt.pr "@.=== FIG 2 — framework steps on the concurrent corpus ===@.";
  List.iter
    (fun input ->
      let run = Cascompcert.Framework.check_fig2 input in
      Fmt.pr "%a@." Cascompcert.Framework.pp_run run)
    (List.filter
       (fun i -> i.Cascompcert.Framework.name <> "producer-consumer")
       (Corpus.framework_inputs ()));
  let input = List.hd (Corpus.framework_inputs ()) in
  let src = Cascompcert.Framework.source_prog input in
  let tgt = Cascompcert.Framework.target_prog input in
  let w p =
    match World.load p ~args:[] with Ok w -> w | Error _ -> assert false
  in
  let w_src = w src and w_tgt = w tgt in
  print_timings "check timings (lock-counter)"
    (run_group ~name:"fig2"
       [
         Test.make ~name:"DRF(source), preemptive"
           (staged (fun () -> Race.drf w_src));
         Test.make ~name:"NPDRF(source)" (staged (fun () -> Race.npdrf w_src));
         Test.make ~name:"DRF(target), preemptive"
           (staged (fun () -> Race.drf w_tgt));
         Test.make ~name:"traces source preemptive"
           (staged (fun () -> Engine.traces ~max_steps:2500 w_src));
         Test.make ~name:"traces source non-preemptive"
           (staged (fun () -> Engine.np_traces ~max_steps:2500 w_src));
         Test.make ~name:"whole Fig.2 pipeline"
           (staged (fun () -> Cascompcert.Framework.check_fig2 input));
       ])

(* ------------------------------------------------------------------ *)
(* npsem-reduction: preemptive vs non-preemptive state-space sizes      *)
(* ------------------------------------------------------------------ *)

let np_reduction () =
  Fmt.pr
    "@.=== NP-semantics reduction — why Lemma 9 matters quantitatively ===@.";
  Fmt.pr "%-24s %7s %9s %9s %7s %9s %9s %7s@." "program" "threads" "preempt"
    "np" "np-x" "dpor" "dpor-par" "dpor-x";
  let progs =
    [
      ("lock-counter", 2, Corpus.lock_counter_prog ());
      ( "lock-counter-3",
        3,
        Lang.prog
          [
            Lang.Mod (Clight.lang, Corpus.counter ());
            Lang.Mod (Cimp.lang, Corpus.gamma_lock ());
          ]
          [ "inc"; "inc"; "inc" ] );
      ( "prints-2",
        2,
        Lang.prog
          [
            Lang.Mod
              (Clight.lang, Parse.clight {| void f() { print(1); print(2); } |});
          ]
          [ "f"; "f" ] );
      ( "prints-3",
        3,
        Lang.prog
          [
            Lang.Mod
              (Clight.lang, Parse.clight {| void f() { print(1); print(2); } |});
          ]
          [ "f"; "f"; "f" ] );
    ]
  in
  List.iter
    (fun (name, n, p) ->
      match World.load p ~args:[] with
      | Error _ -> ()
      | Ok w ->
        let mc engine =
          (Engine.explore ~engine ~max_worlds:400_000 w ~visit:(fun _ -> ()))
            .Cas_mc.Stats.worlds
        in
        let pre = mc Engine.Naive in
        let np =
          (Engine.np_explore ~max_worlds:400_000 w ~visit:(fun _ -> ()))
            .Cas_mc.Stats.worlds
        in
        let dpor = mc Engine.Dpor in
        let dpor_par = mc Engine.Dpor_par in
        record_worlds ~program:name ~engine:"naive" pre;
        record_worlds ~program:name ~engine:"np" np;
        record_worlds ~program:name ~engine:"dpor" dpor;
        record_worlds ~program:name ~engine:"dpor-par" dpor_par;
        let ratio a b = float_of_int a /. float_of_int (max 1 b) in
        Fmt.pr "%-24s %7d %9d %9d %6.1fx %9d %9d %6.1fx@." name n pre np
          (ratio pre np) dpor dpor_par (ratio pre dpor))
    progs

(* ------------------------------------------------------------------ *)
(* fig3-tso + lock-ablation                                            *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  Fmt.pr "@.=== FIG 3 — extended framework: x86-TSO and the TTAS lock ===@.";
  let client = Cas_compiler.Driver.compile (Corpus.counter ()) in
  let gamma = Corpus.gamma_lock () in
  Fmt.pr "%-14s %-36s %12s %12s@." "lock" "Lemma 16 (TSO+pi <= SC+gamma)"
    "TSO worlds" "dpor worlds";
  let variants =
    [
      ("TTAS", Cas_tso.Locks.pi_lock);
      ("TTAS+fence", Cas_tso.Locks.pi_lock_fenced);
    ]
  in
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
          Cas_tso.Tso.explore ~engine ~max_worlds:400_000 w
            ~visit:(fun _ -> ())
      in
      let worlds = (explore Engine.Naive).Cas_mc.Stats.worlds in
      let dpor_st = explore Engine.Dpor in
      record_worlds ~program:("tso-" ^ name) ~engine:"naive" worlds;
      record_worlds ~program:("tso-" ^ name) ~engine:"dpor"
        dpor_st.Cas_mc.Stats.worlds;
      (* the spinning TTAS loop violates the DPOR acyclicity
         precondition: worlds shrink but the path budget truncates,
         marked with a star *)
      Fmt.pr "%-14s %-36s %12d %11d%s@." name
        (if g.Cas_tso.Objsim.holds then "holds" else "FAILS")
        worlds dpor_st.Cas_mc.Stats.worlds
        (if dpor_st.Cas_mc.Stats.truncated then "*" else " "))
    variants;
  let sims =
    Cas_tso.Objsim.check_object_sim ~pi:Cas_tso.Locks.pi_lock ~gamma
      ~entries:[ ("lock", [ 0; 1 ]); ("unlock", [ 0 ]) ]
      ()
  in
  Fmt.pr "object simulation pi_lock <=o gamma_lock:@.";
  List.iter (fun r -> Fmt.pr "  %a@." Cas_tso.Objsim.pp_obj_sim r) sims;
  print_timings "TSO exploration time (2 contending threads)"
    (run_group ~name:"fig3"
       (List.map
          (fun (name, pi) ->
            Test.make ~name
              (staged (fun () ->
                   match Cas_tso.Tso.load [ client; pi ] [ "inc"; "inc" ] with
                   | Error _ -> ()
                   | Ok w ->
                     ignore
                       (Cas_tso.Tso.explore ~max_worlds:400_000 w
                          ~visit:(fun _ -> ())))))
          variants))

(* ------------------------------------------------------------------ *)
(* fig13-loc: the paper's only table                                    *)
(* ------------------------------------------------------------------ *)

(* Fig. 13 of the paper: (pass, CompCert spec, their spec, CompCert
   proof, their proof), in lines of Coq. *)
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

let fig13_framework_paper =
  [
    ("Compositionality (Lem. 6)", 580, 2249);
    ("DRF preservation (Lem. 8)", 358, 1142);
    ("Semantics equiv. (Lem. 9)", 1540, 4718);
    ("Lifting", 813, 1795);
  ]

let loc_of_file path =
  if Sys.file_exists path then begin
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" then incr n
       done
     with End_of_file -> close_in ic);
    !n
  end
  else 0

let our_pass_file = function
  | "Cshmgen" -> [ "lib/compiler/cshmgen.ml" ]
  | "Cminorgen" -> [ "lib/compiler/cminorgen.ml" ]
  | "Selection" -> [ "lib/compiler/selection.ml" ]
  | "RTLgen" -> [ "lib/compiler/rtlgen.ml" ]
  | "Tailcall" -> [ "lib/compiler/tailcall.ml" ]
  | "Renumber" -> [ "lib/compiler/renumber.ml" ]
  | "Allocation" -> [ "lib/compiler/allocation.ml"; "lib/compiler/liveness.ml" ]
  | "Tunneling" -> [ "lib/compiler/tunneling.ml" ]
  | "Linearize" -> [ "lib/compiler/linearize.ml" ]
  | "CleanupLabels" -> [ "lib/compiler/cleanuplabels.ml" ]
  | "Stacking" -> [ "lib/compiler/stacking.ml" ]
  | "Asmgen" -> [ "lib/compiler/asmgen.ml" ]
  | _ -> []

let fig13 () =
  Fmt.pr "@.=== FIG 13 — lines of code (paper: Coq; ours: OCaml) ===@.";
  Fmt.pr "%-28s %22s %22s %10s@." "pass" "paper spec (CC/ours)"
    "paper proof (CC/ours)" "this repo";
  List.iter
    (fun (name, sc, so, pc, po) ->
      let ours =
        List.fold_left (fun acc f -> acc + loc_of_file f) 0 (our_pass_file name)
      in
      Fmt.pr "%-28s %12d / %5d %13d / %5d %10s@." name sc so pc po
        (if ours = 0 then "n/a" else string_of_int ours))
    fig13_paper;
  Fmt.pr "-- framework components --@.";
  let our_framework =
    [
      ( "Compositionality (Lem. 6)",
        [ "lib/core/simulation.ml"; "lib/core/framework.ml" ] );
      ("DRF preservation (Lem. 8)", [ "lib/conc/race.ml" ]);
      ( "Semantics equiv. (Lem. 9)",
        [
          "lib/conc/preemptive.ml";
          "lib/conc/nonpreemptive.ml";
          "lib/conc/explore.ml";
          "lib/conc/refine.ml";
        ] );
      ("Lifting", [ "lib/conc/world.ml"; "lib/conc/gsem.ml" ]);
    ]
  in
  List.iter
    (fun (name, sp, pr) ->
      let files = try List.assoc name our_framework with Not_found -> [] in
      let ours = List.fold_left (fun acc f -> acc + loc_of_file f) 0 files in
      Fmt.pr "%-28s %12s / %5d %13s / %5d %10s@." name "-" sp "-" pr
        (if ours = 0 then "n/a" else string_of_int ours))
    fig13_framework_paper;
  Fmt.pr
    "(paper columns are Coq spec+proof lines; ours are OCaml implementation \
     lines —@.the proofs are replaced by the executable checkers and the test \
     suite)@."

(* ------------------------------------------------------------------ *)
(* compile: pass manager, certificate cache, parallel unit builds       *)
(* ------------------------------------------------------------------ *)

let compile_section () =
  Fmt.pr "@.=== COMPILE — pass manager & certificate cache ===@.";
  let open Cas_compiler in
  let units = List.map (fun (_, c, _) -> c) (Corpus.sequential_clients ()) in
  let n_units = List.length units in
  (* cold: no cache, per-pass wall-clock straight from the instrumented
     driver *)
  let per_pass : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let cold = Driver.compile_all ~cache:false units in
  List.iter
    (fun (c : Driver.compiled) ->
      List.iter
        (fun st ->
          let t =
            Option.value ~default:0.
              (Hashtbl.find_opt per_pass st.Driver.st_pass)
          in
          Hashtbl.replace per_pass st.Driver.st_pass
            (t +. st.Driver.st_wall_ns))
        c.Driver.c_stats)
    cold;
  (* warm: prime the cache, recompile, read the hit/miss counters *)
  Cache.reset_stats ();
  ignore (Driver.compile_all ~cache:true units);
  ignore (Driver.compile_all ~cache:true units);
  let stats_by_pass =
    List.map
      (fun (s : Cache.stats) -> (s.Cache.name, s))
      (Driver.cache_stats ())
  in
  Fmt.pr "%-16s %12s %6s %7s   (%d units, warm pass = 2nd compile)@." "pass"
    "cold/unit" "hits" "misses" n_units;
  List.iter
    (fun pass ->
      let cold_ns =
        Option.value ~default:0. (Hashtbl.find_opt per_pass pass)
        /. float_of_int (max 1 n_units)
      in
      let hits, misses =
        match List.assoc_opt pass stats_by_pass with
        | Some s -> (s.Cache.hits, s.Cache.misses)
        | None -> (0, 0)
      in
      json_compile := (pass, cold_ns, hits, misses) :: !json_compile;
      Fmt.pr "  %-16s %a %6d %7d@." pass pp_ns cold_ns hits misses)
    Driver.pass_names;
  (* parallel per-module builds: wall-clock for the whole corpus *)
  print_timings "whole-corpus build (uncached)"
    (run_group ~name:"compile"
       [
         Test.make ~name:"jobs-1"
           (staged (fun () -> Driver.compile_all ~cache:false ~jobs:1 units));
         (let jobs = max 2 (Cas_base.Pool.default_jobs ()) in
          Test.make ~name:(Fmt.str "jobs-%d" jobs)
            (staged (fun () -> Driver.compile_all ~cache:false ~jobs units)));
         Test.make ~name:"warm-cache"
           (staged (fun () -> Driver.compile_all ~cache:true units));
       ])

(* ------------------------------------------------------------------ *)
(* diag: counterexample capture overhead & schedule shrinking           *)
(* ------------------------------------------------------------------ *)

let diag () =
  Fmt.pr "@.=== DIAG — counterexample capture & schedule shrinking ===@.";
  let progs =
    [
      ( "racy-counter",
        Corpus.racy_prog (),
        Corpus.racy_counter_src,
        [ "inc"; "inc" ] );
      ( "racy-observer",
        Corpus.observer_prog (),
        Corpus.racy_observer_writer_src,
        [ "writer"; "reader" ] );
      ( "lock-counter",
        Corpus.lock_counter_prog (),
        Corpus.counter_src,
        [ "inc"; "inc" ] );
    ]
  in
  let worlds =
    List.filter_map
      (fun (name, p, src, entries) ->
        match World.load p ~args:[] with
        | Error _ -> None
        | Ok w -> Some (name, w, src, entries))
      progs
  in
  (* capture overhead: [Race.drf] vs [Capture.race], both exploring the
     dpor selection view — capture adds the recorder writes and the
     spanning-tree path reconstruction on top of the same search.
     Best-of-N minimum wall clock, not OLS means: these runs sit in the
     hundreds of microseconds where GC pauses swamp a percent-level
     comparison, and the minimum is the noise-robust estimator for a
     deterministic computation. *)
  let rounds = 25 in
  Fmt.pr "capture overhead over plain DRF (dpor engine, best of %d):@." rounds;
  Fmt.pr "  %-16s %11s %11s %9s@." "program" "drf" "capture" "overhead";
  List.iter
    (fun (name, w, _, _) ->
      let drf_f () = ignore (Race.drf ~engine:Engine.Dpor w) in
      let cap_f () = ignore (Cas_diag.Capture.race ~engine:Engine.Dpor w) in
      (* warm up, then time the two alternately so heap growth and GC
         state drift hit both sides equally *)
      drf_f ();
      cap_f ();
      Gc.full_major ();
      let drf_best = ref infinity and cap_best = ref infinity in
      for _ = 1 to rounds do
        let t0 = Unix.gettimeofday () in
        drf_f ();
        let t1 = Unix.gettimeofday () in
        cap_f ();
        let t2 = Unix.gettimeofday () in
        drf_best := min !drf_best ((t1 -. t0) *. 1e9);
        cap_best := min !cap_best ((t2 -. t1) *. 1e9)
      done;
      let drf_ns = !drf_best and cap_ns = !cap_best in
      let pct = (cap_ns -. drf_ns) /. drf_ns *. 100. in
      json_benchmarks :=
        ("diag capture:" ^ name, rounds, cap_ns)
        :: ("diag drf:" ^ name, rounds, drf_ns)
        :: !json_benchmarks;
      json_diag := (name, drf_ns, cap_ns, pct) :: !json_diag;
      Fmt.pr "  %-16s %a %a %+8.1f%%@." name pp_ns drf_ns pp_ns cap_ns pct)
    worlds;
  (* shrink effectiveness on the captured witnesses *)
  Fmt.pr "@.schedule shrinking (captured witness -> minimal):@.";
  Fmt.pr "  %-16s %14s %14s %9s@." "program" "steps" "switches" "attempts";
  List.iter
    (fun (name, w, src, entries) ->
      let rc = Cas_diag.Capture.race ~engine:Engine.Dpor w in
      match rc.Cas_diag.Capture.rc_verdict with
      | None -> Fmt.pr "  %-16s DRF: nothing to shrink@." name
      | Some v ->
        let wit =
          Cas_diag.Witness.make ~program:src ~entries
            ~with_lock:(name = "lock-counter")
            ~semantics:Cas_diag.Witness.Sc ~engine:"dpor" ~seed:0 ~verdict:v
            rc.Cas_diag.Capture.rc_steps
        in
        let r = Cas_diag.Shrink.shrink (Cas_diag.Sem.of_world w) wit in
        json_shrink :=
          ( name,
            r.Cas_diag.Shrink.sh_orig_steps,
            r.Cas_diag.Shrink.sh_min_steps,
            r.Cas_diag.Shrink.sh_orig_switches,
            r.Cas_diag.Shrink.sh_min_switches,
            r.Cas_diag.Shrink.sh_attempts )
          :: !json_shrink;
        Fmt.pr "  %-16s %5d -> %5d %7d -> %4d %9d@." name
          r.Cas_diag.Shrink.sh_orig_steps r.Cas_diag.Shrink.sh_min_steps
          r.Cas_diag.Shrink.sh_orig_switches r.Cas_diag.Shrink.sh_min_switches
          r.Cas_diag.Shrink.sh_attempts)
    worlds

(* ------------------------------------------------------------------ *)
(* link: certified object files, cold vs incremental relink, --jobs     *)
(* ------------------------------------------------------------------ *)

let link_section () =
  Fmt.pr "@.=== LINK — certifying linker & incremental relink ===@.";
  let open Cas_link in
  Cas_compiler.Cache.set_default_dir None;
  Cas_compiler.Cache.clear_memory ();
  let objs =
    List.map
      (fun (name, source) ->
        match Objfile.build ~name ~source () with
        | Ok o -> o
        | Error e -> Fmt.failwith "build %s: %s" name e)
      Corpus.link_module_srcs
  in
  let entries = [ "f" ] in
  let link ~jobs () =
    match Linker.link ~certify:true ~jobs ~entries objs with
    | Ok o -> o
    | Error e -> Fmt.failwith "link: %a" Linker.pp_error e
  in
  (* best-of-N minimum, as in the diag section: the link is deterministic
     and these runs are short enough for GC noise to dominate a mean *)
  let rounds = 9 in
  let measure ~case ~jobs ~cold =
    let best = ref infinity and last = ref None in
    if not cold then ignore (link ~jobs ());
    for _ = 1 to rounds do
      if cold then Cas_compiler.Cache.clear_memory ();
      let t0 = Unix.gettimeofday () in
      let o = link ~jobs () in
      let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
      if dt < !best then best := dt;
      last := Some o
    done;
    let o = Option.get !last in
    let s = o.Linker.lk_stats in
    json_benchmarks := ("link:" ^ case, rounds, !best) :: !json_benchmarks;
    json_link :=
      (case, !best, s.Linker.l_verdicts, s.Linker.l_cached,
       s.Linker.l_checker_steps)
      :: !json_link;
    Fmt.pr "  %-24s %a   %d verdicts (%d cached), %d checker steps@." case
      pp_ns !best s.Linker.l_verdicts s.Linker.l_cached
      s.Linker.l_checker_steps
  in
  Fmt.pr "%d objects, entries [%a] (best of %d):@." (List.length objs)
    Fmt.(list ~sep:comma string)
    entries rounds;
  measure ~case:"cold" ~jobs:1 ~cold:true;
  measure ~case:"incremental" ~jobs:1 ~cold:false;
  let jobs = max 2 (Cas_base.Pool.default_jobs ()) in
  measure ~case:(Fmt.str "cold-jobs-%d" jobs) ~jobs ~cold:true;
  (* an incremental relink must re-verify nothing *)
  (match List.assoc_opt "incremental" (List.rev_map (fun (c, _, v, ca, st) -> (c, (v, ca, st))) !json_link) with
  | Some (v, cached, steps) when cached = v && steps = 0 -> ()
  | Some (v, cached, steps) ->
    Fmt.failwith
      "incremental relink re-verified: %d/%d cached, %d checker steps" cached
      v steps
  | None -> ())

(* ------------------------------------------------------------------ *)
(* recert: function-granular recertification after a one-function edit *)
(* ------------------------------------------------------------------ *)

(** Certify every module of the link corpus through all compilation
    passes, edit the body of one function ([sq] in [powers]), and
    re-certify the whole image. Verdicts are keyed by function body
    digest, so only the edited function's path through the pipeline may
    re-run the checker — every other function must be a pure cache hit
    with zero checker steps. *)
let recert_section () =
  Fmt.pr "@.=== RECERT — edit one function of N, re-certify ===@.";
  Cas_compiler.Cache.set_default_dir None;
  Cas_compiler.Cache.clear_memory ();
  let units =
    List.map
      (fun (name, src) -> (name, Parse.clight src))
      Corpus.link_module_srcs
  in
  (* the one-function edit: [sq]'s body, spelled differently but still
     squaring — every other function in the image is byte-identical *)
  let edited_powers =
    Parse.clight
      {|
      int sq(int n) { int t; t = n * n; return t; }
      int cube(int n) {
        int s;
        s = sq(n);
        return n * s;
      }
      void k() {
        int a;
        int b;
        a = cube(3);
        b = sq(3);
        print(a - b);
      }
|}
  in
  let edited_units =
    List.map
      (fun (name, p) -> (name, if name = "powers" then edited_powers else p))
      units
  in
  let nfuns =
    List.fold_left (fun acc (_, p) -> acc + List.length p.Clight.funcs) 0 units
  in
  let certify units =
    List.concat_map (fun (_, p) -> Cascompcert.Framework.check_passes p) units
  in
  let summarize reports =
    List.fold_left
      (fun (v, c, s) (r : Cascompcert.Framework.pass_sim_report) ->
        (v + 1, c + (if r.cached then 1 else 0), s + r.checker_steps))
      (0, 0, 0) reports
  in
  (* best-of-N minimum, as in the link section *)
  let rounds = 5 in
  let measure ~case ~prepare f =
    let best = ref infinity and last = ref None in
    for _ = 1 to rounds do
      prepare ();
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
      if dt < !best then best := dt;
      last := Some r
    done;
    let reports = Option.get !last in
    let v, cached, steps = summarize reports in
    json_benchmarks := ("recert:" ^ case, rounds, !best) :: !json_benchmarks;
    json_recert := (case, !best, v, cached, steps) :: !json_recert;
    Fmt.pr "  %-24s %a   %d verdicts (%d cached), %d checker steps@." case
      pp_ns !best v cached steps;
    reports
  in
  Fmt.pr "%d modules, %d functions (best of %d):@." (List.length units) nfuns
    rounds;
  let cold =
    measure ~case:"cold"
      ~prepare:(fun () -> Cas_compiler.Cache.clear_memory ())
      (fun () -> certify units)
  in
  let _, _, cold_steps = summarize cold in
  (* recertifying an unchanged image must re-verify nothing *)
  let unchanged =
    measure ~case:"unchanged" ~prepare:(fun () -> ()) (fun () -> certify units)
  in
  let v_un, c_un, s_un = summarize unchanged in
  if not (c_un = v_un && s_un = 0) then
    Fmt.failwith "unchanged recert re-verified: %d/%d cached, %d checker steps"
      c_un v_un s_un;
  (* after the edit, only [sq]'s verdicts may miss *)
  let edited =
    measure ~case:"edit-1-fn"
      ~prepare:(fun () ->
        Cas_compiler.Cache.clear_memory ();
        ignore (certify units))
      (fun () -> certify edited_units)
  in
  List.iter
    (fun (r : Cascompcert.Framework.pass_sim_report) ->
      if r.entry = "sq" then begin
        if r.cached then
          Fmt.failwith "edited function %s: stale cached verdict for %s"
            r.entry r.pass
      end
      else if (not r.cached) || r.checker_steps <> 0 then
        Fmt.failwith
          "untouched function %s re-verified (%s: cached=%b, %d checker steps)"
          r.entry r.pass r.cached r.checker_steps)
    edited;
  let _, _, edit_steps = summarize edited in
  if edit_steps * 2 >= cold_steps then
    Fmt.failwith
      "recert after a one-function edit cost %d checker steps vs %d cold — \
       not function-granular"
      edit_steps cold_steps

(* ------------------------------------------------------------------ *)
(* hotpath: microbenches of the three exploration inner loops           *)
(* ------------------------------------------------------------------ *)

(** A representative mid-exploration world: descend a fixed number of
    scheduler choices from the loaded world so stacks and memory carry
    real frames, not just the initial cores. *)
let mid_world w0 ~depth =
  let sys = Engine.selection_system in
  let rec go w n =
    if n = 0 then w
    else
      match
        List.find_map
          (fun (tr : World.t Cas_mc.Mcsys.trans) ->
            match tr.Cas_mc.Mcsys.target with
            | Cas_mc.Mcsys.Next w' -> Some w'
            | Cas_mc.Mcsys.Abort -> None)
          (sys.Cas_mc.Mcsys.trans w)
      with
      | Some w' -> go w' (n - 1)
      | None -> w
  in
  go w0 depth

let hotpath () =
  Fmt.pr "@.=== HOTPATH — fingerprint / conflict / store microbenches ===@.";
  let w0 =
    match World.load (Corpus.lock_counter_prog ()) ~args:[] with
    | Ok w -> w
    | Error _ -> assert false
  in
  let w = mid_world w0 ~depth:7 in
  let sys = Engine.selection_system in
  let key () = sys.Cas_mc.Mcsys.fingerprint w in
  let mem = w.World.mem in
  (* footprints over global cells: one disjoint pair (the summary fast
     path) and one conflicting pair (the word loop) *)
  let a b o = Addr.make b o in
  let d1 =
    Footprint.union
      (Footprint.reads [ a 0 0; a 1 0 ])
      (Footprint.writes [ a 1 0 ])
  in
  let d2 =
    Footprint.union
      (Footprint.reads [ a 2 0; a 3 0 ])
      (Footprint.writes [ a 3 0 ])
  in
  let d3 =
    Footprint.union
      (Footprint.reads [ a 1 0; a 4 0 ])
      (Footprint.writes [ a 1 0 ])
  in
  (* the merged state table as a DPOR revisit uses it: one lookup both
     answers "seen" and returns the world's memoized transitions *)
  let store = Cas_mc.Store.create ~capacity:100_000 () in
  let seen_key = key () in
  (match Cas_mc.Store.add store seen_key with
  | `New slot -> Cas_mc.Store.fill slot (sys.Cas_mc.Mcsys.trans w)
  | `Seen _ | `Full -> ());
  let revisit () =
    match Cas_mc.Store.add store seen_key with
    | `Seen slot -> Cas_mc.Store.get slot
    | `New _ | `Full -> None
  in
  print_timings "hot paths (lock-counter, mid-exploration world)"
    (run_group ~name:"hotpath"
       [
         Test.make ~name:"world-key" (staged key);
         Test.make ~name:"memory-fingerprint"
           (staged (fun () -> Memory.fingerprint mem));
         Test.make ~name:"conflict-disjoint"
           (staged (fun () -> Footprint.conflict d1 d2));
         Test.make ~name:"conflict-overlap"
           (staged (fun () -> Footprint.conflict d1 d3));
         Test.make ~name:"store-add-seen"
           (staged revisit);
       ])

(* ------------------------------------------------------------------ *)
(* explore: wall-clock exploration over the dpor bench corpus           *)
(* ------------------------------------------------------------------ *)

(** Wall-clock exploration sections — the numbers the bench-regress CI
    gate compares against BENCH_BASELINE.json. Best-of-N minimum, as in
    the diag section: exploration is deterministic and the minimum is
    the noise-robust estimator. *)
let explore_section ~jobs () =
  Fmt.pr "@.=== EXPLORE — wall-clock exploration (regression-gated) ===@.";
  let jobs =
    match jobs with Some j -> j | None -> max 2 (Cas_base.Pool.default_jobs ())
  in
  let cores = Domain.recommended_domain_count () in
  let progs =
    [
      ("lock-counter", Corpus.lock_counter_prog ());
      ( "lock-counter-3",
        Lang.prog
          [
            Lang.Mod (Clight.lang, Corpus.counter ());
            Lang.Mod (Cimp.lang, Corpus.gamma_lock ());
          ]
          [ "inc"; "inc"; "inc" ] );
      ( "prints-3",
        Lang.prog
          [
            Lang.Mod
              (Clight.lang, Parse.clight {| void f() { print(1); print(2); } |});
          ]
          [ "f"; "f"; "f" ] );
    ]
  in
  let rounds = 7 in
  Fmt.pr "best of %d (wall clock), dpor-par on %d domains:@." rounds jobs;
  let measure name f =
    f ();
    (* warm up *)
    Gc.full_major ();
    let best = ref infinity in
    for _ = 1 to rounds do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
      if dt < !best then best := dt
    done;
    json_benchmarks := (name, rounds, !best) :: !json_benchmarks;
    Fmt.pr "  %-40s %a@." name pp_ns !best;
    !best
  in
  let t_dpor3 = ref nan and t_par3 = ref nan in
  List.iter
    (fun (pname, p) ->
      match World.load p ~args:[] with
      | Error _ -> ()
      | Ok w ->
        (* correctness gates first, on every gated program: the optimal
           source-DPOR invariants are cheap to check — no schedule may
           end sleep-set-blocked, and the visited world set must be
           steal-invariant (dpor-par at any jobs count agrees with
           sequential dpor world for world) *)
        let st_dpor =
          Engine.explore ~engine:Engine.Dpor ~max_worlds:400_000 w
            ~visit:(fun _ -> ())
        in
        let st_par =
          Engine.explore ~engine:Engine.Dpor_par ~jobs ~max_worlds:400_000 w
            ~visit:(fun _ -> ())
        in
        record_worlds ~program:pname ~engine:"dpor" st_dpor.Cas_mc.Stats.worlds;
        record_worlds ~program:pname ~engine:"dpor-par"
          st_par.Cas_mc.Stats.worlds;
        if st_dpor.Cas_mc.Stats.sleep_prunings <> 0 then
          Fmt.failwith "explore %s: dpor left %d sleep-set-blocked schedules"
            pname st_dpor.Cas_mc.Stats.sleep_prunings;
        if st_par.Cas_mc.Stats.sleep_prunings <> 0 then
          Fmt.failwith
            "explore %s: dpor-par(%d) left %d sleep-set-blocked schedules"
            pname jobs st_par.Cas_mc.Stats.sleep_prunings;
        if st_par.Cas_mc.Stats.worlds <> st_dpor.Cas_mc.Stats.worlds then
          Fmt.failwith
            "explore %s: dpor-par(%d) visited %d worlds, dpor %d — the \
             visited world set must be steal-invariant"
            pname jobs st_par.Cas_mc.Stats.worlds st_dpor.Cas_mc.Stats.worlds;
        let t =
          measure
            (Fmt.str "explore dpor:%s" pname)
            (fun () ->
              ignore
                (Engine.explore ~engine:Engine.Dpor ~max_worlds:400_000 w
                   ~visit:(fun _ -> ())))
        in
        ignore
          (measure
             (Fmt.str "explore drf-dpor:%s" pname)
             (fun () -> ignore (Race.drf ~engine:Engine.Dpor w)));
        if pname = "lock-counter-3" then begin
          t_dpor3 := t;
          t_par3 :=
            measure
              (Fmt.str "explore dpor-par:%s" pname)
              (fun () ->
                ignore
                  (Engine.explore ~engine:Engine.Dpor_par ~jobs
                     ~max_worlds:400_000 w ~visit:(fun _ -> ())));
          ignore
            (measure
               (Fmt.str "explore naive:%s" pname)
               (fun () ->
                 ignore
                   (Engine.explore ~engine:Engine.Naive ~max_worlds:400_000 w
                      ~visit:(fun _ -> ()))))
        end)
    progs;
  (* parallel speedup gate, self-conditioned on the machine: a 1-core
     container cannot speed anything up, so the wall-clock gate only
     arms when the domains can actually run in parallel. The
     correctness gates above always run. *)
  if cores >= 2 && jobs >= 2 then begin
    let need = if jobs >= 8 && cores >= 8 then 3.0 else 1.6 in
    let sp = !t_dpor3 /. !t_par3 in
    Fmt.pr "  dpor-par(%d) speedup on lock-counter-3: %.2fx (gate: %.1fx)@."
      jobs sp need;
    if sp < need then
      Fmt.failwith
        "explore: dpor-par(%d) speedup on lock-counter-3 is %.2fx, gate %.1fx"
        jobs sp need
  end
  else
    Fmt.pr
      "  speedup gate skipped: %d core%s available (correctness gates ran)@."
      cores
      (if cores = 1 then "" else "s");
  (* the TSO machine shares Memory and the fingerprint scheme; gate it too *)
  let client = Cas_compiler.Driver.compile (Corpus.counter ()) in
  match
    Cas_tso.Tso.load [ client; Cas_tso.Locks.pi_lock_fenced ] [ "inc"; "inc" ]
  with
  | Error _ -> ()
  | Ok w ->
    ignore @@ measure "explore tso-dpor:TTAS+fence" (fun () ->
        ignore
          (Cas_tso.Tso.explore ~engine:Engine.Dpor ~max_worlds:400_000 w
             ~visit:(fun _ -> ())));
    ignore @@ measure "explore tso-naive:TTAS+fence" (fun () ->
        ignore
          (Cas_tso.Tso.explore ~engine:Engine.Naive ~max_worlds:400_000 w
             ~visit:(fun _ -> ())))

(* ------------------------------------------------------------------ *)
(* serve: cascd under a Zipf client fleet                               *)
(* ------------------------------------------------------------------ *)

(** The load-driver bench for the certification service: a fleet of
    persistent clients whose module reuse follows a Zipf law (a few hot
    modules dominate, a long tail stays cold — build-farm traffic), all
    hammering one in-process daemon.

    Self-gated (like [recert_section]): the warm daemon must beat the
    cold per-request path by >= 5x in throughput, and an identical-request
    burst against a slowed daemon must coalesce at least half of its
    duplicates onto one execution. [check_baseline] only gates the
    "explore" rows, so the failures here are [Fmt.failwith], not the
    tolerance band. *)
let serve_section () =
  let module Protocol = Cas_serve.Protocol in
  let module Daemon = Cas_serve.Daemon in
  let module Client = Cas_serve.Client in
  Fmt.pr "@.=== SERVE — cascd under a Zipf client fleet (self-gated) ===@.";
  (* memory tier only: the cold path below models a fresh [casc]
     process, and a shared disk cache would let it cheat *)
  Cas_compiler.Cache.set_default_dir None;
  Cas_compiler.Cache.clear_memory ();
  Cas_compiler.Cache.reset_stats ();
  let record metric v = json_serve := (metric, v) :: !json_serve in
  let n_mods = 24 in
  (* one source per rank, [powers]-sized (a call chain across several
     functions): small enough to certify in milliseconds, big enough
     that certification — not socket round-trips — dominates the cold
     path *)
  let src rank =
    Fmt.str
      {|
      int x%d = %d;
      int scale%d(int n) { int t; t = n * %d; return t; }
      int twice%d(int n) {
        int s;
        int u;
        s = scale%d(n);
        u = scale%d(n);
        return s + u;
      }
      int probe%d(int n) { int u; u = twice%d(n); return u + x%d; }
      void m%d() {
        int a;
        int b;
        a = probe%d(%d);
        b = twice%d(a);
        x%d = b;
        print(a + b);
      }
|}
      rank rank rank (rank + 2) rank rank rank rank rank rank rank rank
      (rank + 1) rank rank
  in
  let certify rank = Protocol.Certify { source = src rank } in
  let cdf = Load.zipf_cdf ~n:n_mods ~s:1.1 in
  let cfg =
    { Daemon.default_config with Daemon.jobs = 4; Daemon.queue_cap = 256 }
  in
  (* --- cold per-request path: one fresh [casc sim] *process* per
     request, which is exactly what the daemon replaces — every spawn
     pays executable startup plus a cacheless certification. Timed
     before the daemon exists so its warm caches cannot leak in. The
     gate uses the *fastest* spawn, the most conservative baseline. --- *)
  let casc_exe =
    (* bench/main.exe and bin/casc.exe are siblings under _build/default *)
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "casc.exe")
  in
  let n_cold = 12 in
  let cold_rng = Load.rng ~seed:42 in
  let cold_src =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "cascd-bench-%d.c" (Unix.getpid ()))
  in
  let spawn_sim rank =
    let oc = open_out cold_src in
    output_string oc (src rank);
    close_out oc;
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let t0 = Unix.gettimeofday () in
    let pid =
      Unix.create_process casc_exe
        [| casc_exe; "sim"; cold_src |]
        devnull devnull devnull
    in
    let _, status = Unix.waitpid [] pid in
    let dt = Unix.gettimeofday () -. t0 in
    Unix.close devnull;
    match status with
    | Unix.WEXITED 0 -> dt
    | _ -> Fmt.failwith "serve: cold [casc sim] run failed"
  in
  let cold_best_s, cold_mean_s =
    if Sys.file_exists casc_exe then begin
      let times =
        List.init n_cold (fun _ -> spawn_sim (Load.sample cdf cold_rng))
      in
      Sys.remove cold_src;
      ( List.fold_left min infinity times,
        List.fold_left ( +. ) 0. times /. float_of_int n_cold )
    end
    else begin
      (* bench built alone (no [dune build] first): fall back to the
         in-process certify cost, which *understates* the cold path —
         no process startup — so the gate only gets harder *)
      Fmt.pr "  note: %s not built; cold path measured in-process@." casc_exe;
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n_cold do
        Cas_compiler.Cache.clear_memory ();
        match Daemon.exec cfg (certify (Load.sample cdf cold_rng)) with
        | Ok _ -> ()
        | Error e -> Fmt.failwith "serve: cold certify failed: %s" e
      done;
      let s = (Unix.gettimeofday () -. t0) /. float_of_int n_cold in
      (s, s)
    end
  in
  let cold_rps = 1. /. cold_best_s in
  (* the same certification without the process boundary, for scale: the
     daemon's margin over this is caches + dedup alone *)
  let n_inproc = 32 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n_inproc do
    Cas_compiler.Cache.clear_memory ();
    match Daemon.exec cfg (certify (Load.sample cdf cold_rng)) with
    | Ok _ -> ()
    | Error e -> Fmt.failwith "serve: cold certify failed: %s" e
  done;
  let inproc_s = (Unix.gettimeofday () -. t0) /. float_of_int n_inproc in
  Cas_compiler.Cache.clear_memory ();
  (* --- the daemon, in-process (its accept loop on its own thread) --- *)
  let start cfg =
    match Daemon.create cfg with
    | Error e -> Fmt.failwith "serve: %s" e
    | Ok d ->
      let th = Thread.create (fun () -> ignore (Daemon.run d)) () in
      (match Client.wait_ready ~socket:cfg.Daemon.socket () with
      | Ok () -> ()
      | Error e -> Fmt.failwith "serve: %s" e);
      (d, th)
  in
  let sched_gauge ~socket name =
    let r =
      Client.with_connection ~socket (fun c ->
          Client.request c Protocol.Metrics)
    in
    match r with
    | Ok (Ok { Protocol.payload; _ }) -> (
      match
        Cas_diag.Json.member name (Cas_diag.Json.member "scheduler" payload)
      with
      | Cas_diag.Json.Int n -> n
      | _ | (exception Cas_diag.Json.Decode_error _) ->
        Fmt.failwith "serve: metrics reply lacks scheduler.%s" name)
    | _ -> Fmt.failwith "serve: metrics request failed"
  in
  let shutdown ~socket th =
    (match
       Client.with_connection ~socket (fun c ->
           Client.request c Protocol.Shutdown)
     with
    | Ok (Ok { Protocol.status = Protocol.Sok; _ }) -> ()
    | _ -> Fmt.failwith "serve: shutdown request failed");
    Thread.join th
  in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "cascd-bench-%d.sock" (Unix.getpid ()))
  in
  let _d, th = start { cfg with Daemon.socket } in
  (* warm-up: certify every module once so the fleet below measures the
     steady state a long-lived daemon actually serves *)
  (match
     Client.with_connection ~socket (fun c ->
         for rank = 0 to n_mods - 1 do
           match Client.request c (certify rank) with
           | Ok { Protocol.status = Protocol.Sok; _ } -> ()
           | _ -> Fmt.failwith "serve: warm-up certify %d failed" rank
         done)
   with
  | Ok () -> ()
  | Error e -> Fmt.failwith "serve: warm-up connection failed: %s" e);
  Cas_compiler.Cache.reset_stats ();
  (* --- the Zipf fleet --- *)
  let clients = 120 and requests = 20 in
  let kind_of ~client ~request =
    let r = Load.rng ~seed:((client * 1009) + request) in
    certify (Load.sample cdf r)
  in
  let o = Load.run_clients ~socket ~clients ~requests ~kind_of in
  let executed = sched_gauge ~socket "executed" in
  let coalesced = sched_gauge ~socket "coalesced" in
  let hits, misses =
    List.fold_left
      (fun (h, m) (s : Cas_compiler.Cache.stats) ->
        (h + s.Cas_compiler.Cache.hits, m + s.Cas_compiler.Cache.misses))
      (0, 0)
      (Cas_compiler.Cache.global_stats ())
  in
  shutdown ~socket th;
  let warm_s = o.Load.wall_ns /. 1e9 in
  let warm_rps = float_of_int o.Load.ok /. warm_s in
  let pct q = float_of_int (Load.percentile o.Load.latencies_us q) in
  let hit_rate =
    if hits + misses = 0 then 100.
    else 100. *. float_of_int hits /. float_of_int (hits + misses)
  in
  Fmt.pr "%d clients x %d certify requests over %d modules (zipf s=1.1):@."
    clients requests n_mods;
  Fmt.pr "  %-32s %a  (best %a)@." "cold per-request (casc process)" pp_ns
    (cold_mean_s *. 1e9) pp_ns (cold_best_s *. 1e9);
  Fmt.pr "  %-32s %a@." "cold in-process certify" pp_ns (inproc_s *. 1e9);
  Fmt.pr "  %-32s %8.0f rps@." "cold throughput (best spawn)" cold_rps;
  Fmt.pr "  %-32s %8.0f rps  (%.1fx cold)@." "warm daemon throughput" warm_rps
    (warm_rps /. cold_rps);
  Fmt.pr "  %-32s %8.0f / %.0f / %.0f us@." "latency p50 / p95 / p99"
    (pct 0.50) (pct 0.95) (pct 0.99);
  Fmt.pr "  %-32s %8d ok, %d overloaded, %d errors@." "responses" o.Load.ok
    (o.Load.overloaded + o.Load.draining)
    o.Load.errors;
  Fmt.pr "  %-32s %8d executed, %d coalesced@." "scheduler" executed coalesced;
  Fmt.pr "  %-32s %7.1f%%@." "cache hit rate (memory tier)" hit_rate;
  record "clients" (float_of_int clients);
  record "requests" (float_of_int o.Load.sent);
  record "cold_rps" cold_rps;
  record "cold_inproc_us" (inproc_s *. 1e6);
  record "warm_rps" warm_rps;
  record "speedup" (warm_rps /. cold_rps);
  record "p50_us" (pct 0.50);
  record "p95_us" (pct 0.95);
  record "p99_us" (pct 0.99);
  record "ok" (float_of_int o.Load.ok);
  record "overloaded" (float_of_int (o.Load.overloaded + o.Load.draining));
  record "errors" (float_of_int o.Load.errors);
  record "executed" (float_of_int executed);
  record "coalesced" (float_of_int coalesced);
  record "cache_hit_rate_pct" hit_rate;
  (* --- burst: N identical cold requests against a slowed daemon must
     share one execution (the delay widens the in-flight window so the
     coalescing is deterministic, as in the serve tests) --- *)
  let socket2 = socket ^ ".burst" in
  let _d2, th2 =
    start { cfg with Daemon.socket = socket2; Daemon.delay = 0.2 }
  in
  let burst_n = 16 in
  let burst_kind = certify n_mods (* a 25th module, never certified *) in
  let burst_ok = Atomic.make 0 in
  let burst_threads =
    List.init burst_n (fun _ ->
        Thread.create
          (fun () ->
            match
              Client.with_connection ~socket:socket2 (fun c ->
                  Client.request c burst_kind)
            with
            | Ok (Ok { Protocol.status = Protocol.Sok; _ }) ->
              Atomic.incr burst_ok
            | _ -> ())
          ())
  in
  List.iter Thread.join burst_threads;
  let burst_coalesced = sched_gauge ~socket:socket2 "coalesced" in
  let burst_executed = sched_gauge ~socket:socket2 "executed" in
  shutdown ~socket:socket2 th2;
  Fmt.pr "  %-32s %8d identical: %d ok, %d executed, %d coalesced@." "burst"
    burst_n (Atomic.get burst_ok) burst_executed burst_coalesced;
  record "burst_n" (float_of_int burst_n);
  record "burst_ok" (float_of_int (Atomic.get burst_ok));
  record "burst_executed" (float_of_int burst_executed);
  record "burst_coalesced" (float_of_int burst_coalesced);
  (* --- gates --- *)
  if o.Load.errors > 0 then
    Fmt.failwith "serve: %d transport/protocol errors under load"
      o.Load.errors;
  if Atomic.get burst_ok <> burst_n then
    Fmt.failwith "serve: burst lost responses: %d/%d ok"
      (Atomic.get burst_ok) burst_n;
  if warm_rps < 5. *. cold_rps then
    Fmt.failwith
      "serve: warm daemon only %.1fx the cold per-request path (gate: 5x)"
      (warm_rps /. cold_rps);
  if 2 * burst_coalesced < burst_n - 1 then
    Fmt.failwith
      "serve: burst coalesced %d of %d duplicates (gate: at least half)"
      burst_coalesced (burst_n - 1);
  Fmt.pr "  gate: ok (>=5x cold, >=%d/%d duplicates coalesced)@."
    ((burst_n - 1 + 1) / 2)
    (burst_n - 1)

(* ------------------------------------------------------------------ *)
(* --baseline FILE: regression gate against committed numbers           *)
(* ------------------------------------------------------------------ *)

(* line-oriented field scan of our own fixed --json output format (the
   repo's [Cas_diag.Json] parser is integer-only by design) *)
let find_field line key =
  let pat = Fmt.str "\"%s\": " key in
  match
    let plen = String.length pat in
    let rec at i =
      if i + plen > String.length line then None
      else if String.sub line i plen = pat then Some (i + plen)
      else at (i + 1)
    in
    at 0
  with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < String.length line
      && not (List.mem line.[!stop] [ ','; '}'; '\n' ])
    do
      incr stop
    done;
    Some (String.sub line start (!stop - start))

let unquote s =
  if String.length s >= 2 then String.sub s 1 (String.length s - 2) else s

(** Extract (name, ns_per_run) rows from a previous [--json] dump. *)
let read_baseline path : (string * float) list =
  let ic = open_in path in
  let rows = ref [] in
  (* [name] and [ns_per_run] may sit on the same line (our writer) or on
     separate lines (a reformatted file, e.g. via jq) -- carry the last
     seen name across lines and pair it with the next ns_per_run *)
  let pending = ref None in
  (try
     while true do
       let line = input_line ic in
       (match find_field line "name" with
       | Some name when String.length name >= 2 -> pending := Some (unquote name)
       | _ -> ());
       match (!pending, find_field line "ns_per_run") with
       | Some name, Some ns ->
         rows := (name, float_of_string (String.trim ns)) :: !rows;
         pending := None
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

(** Extract (program, engine, worlds) rows from the "worlds" section of
    a previous [--json] dump. *)
let read_baseline_worlds path : (string * string * int) list =
  let ic = open_in path in
  let rows = ref [] in
  let prog = ref None and eng = ref None in
  (try
     while true do
       let line = input_line ic in
       (match find_field line "program" with
       | Some p when String.length p >= 2 -> prog := Some (unquote p)
       | _ -> ());
       (match find_field line "engine" with
       | Some e when String.length e >= 2 -> eng := Some (unquote e)
       | _ -> ());
       match (!prog, !eng, find_field line "worlds") with
       | Some p, Some e, Some w -> (
         (* the "worlds" section header matches the key too; skip it *)
         match int_of_string_opt (String.trim w) with
         | Some n ->
           rows := (p, e, n) :: !rows;
           prog := None;
           eng := None
         | None -> ())
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* fuzz — differential campaign throughput                             *)
(* ------------------------------------------------------------------ *)

(** A small fixed-seed [Cas_fuzz] campaign per language: programs/s
    through the full oracle stack, and the bucket tallies. Not part of
    the baseline-gated explore set — campaign cost is dominated by
    whatever the generator happens to draw, so it gates in CI by bucket
    counts (fuzz-smoke), not by wall clock. *)
let fuzz_section () =
  Fmt.pr "@.=== FUZZ — differential campaign throughput ===@.";
  let count = 40 in
  List.iter
    (fun lang ->
      let name = Cas_fuzz.Gen.lang_to_string lang in
      let t0 = Unix.gettimeofday () in
      let rep =
        Cas_fuzz.Driver.run ~size:8 ~budget:20_000 ~seed:1 ~count lang
      in
      let dt = Unix.gettimeofday () -. t0 in
      let open Cas_fuzz.Driver in
      Fmt.pr "  %-8s %3d programs in %6.2fs (%5.1f/s)  %a@." name count dt
        (float_of_int count /. dt)
        pp_report rep;
      json_fuzz :=
        List.rev_append
          [
            (Fmt.str "%s programs_per_s" name, float_of_int count /. dt);
            (Fmt.str "%s agree" name, float_of_int rep.r_agree);
            (Fmt.str "%s drf" name, float_of_int rep.r_drf);
            (Fmt.str "%s racy" name, float_of_int rep.r_racy);
            ( Fmt.str "%s verdict_divergence" name,
              float_of_int rep.r_verdict_div );
            ( Fmt.str "%s world_count_divergence" name,
              float_of_int rep.r_world_div );
            (Fmt.str "%s crash" name, float_of_int rep.r_crash);
            (Fmt.str "%s timeout" name, float_of_int rep.r_timeout);
          ]
          !json_fuzz;
      if not (clean rep) then begin
        Fmt.epr "fuzz: unexplained divergence in the %s campaign@." name;
        exit 1
      end)
    [ Cas_fuzz.Gen.Clight; Cas_fuzz.Gen.Cimp ]

(** Compare the exploration sections of this run against the baseline;
    fail (exit 1) on any regression beyond the tolerance band. Entries
    missing on either side are reported but never fail the gate (new
    benches must be able to land together with their first baseline). *)
let check_baseline ~path ~tolerance =
  let base = read_baseline path in
  let is_explore n = String.length n >= 8 && String.sub n 0 8 = "explore " in
  (* a baseline that parses to zero exploration entries means the gate
     would silently pass on anything -- fail loudly instead *)
  if not (List.exists (fun (n, _) -> is_explore n) base) then begin
    Fmt.epr "bench-regress: no \"explore\" entries parsed from %s@." path;
    exit 1
  end;
  let current =
    List.filter (fun (n, _, _) -> is_explore n) (List.rev !json_benchmarks)
  in
  (* the symmetric failure: a run that produced no gated rows (a typo'd
     --only, a section that silently bailed) must not pass either *)
  if current = [] then begin
    Fmt.epr
      "bench-regress: this run produced no \"explore\" rows to gate (run \
       with --only explore or no --only)@.";
    exit 1
  end;
  Fmt.pr "@.--- baseline comparison (%s, tolerance %.0f%%) ---@." path
    tolerance;
  Fmt.pr "  %-40s %11s %11s %8s@." "section" "baseline" "now" "speedup";
  let regressed = ref [] in
  List.iter
    (fun (name, _, now_ns) ->
      match List.assoc_opt name base with
      | None -> Fmt.pr "  %-40s %11s %a %8s@." name "(new)" pp_ns now_ns ""
      | Some base_ns ->
        let speedup = base_ns /. now_ns in
        let bad = now_ns > base_ns *. (1. +. (tolerance /. 100.)) in
        if bad then regressed := name :: !regressed;
        Fmt.pr "  %-40s %a %a %7.2fx%s@." name pp_ns base_ns pp_ns now_ns
          speedup
          (if bad then "  REGRESSION" else ""))
    current;
  List.iter
    (fun (name, _) ->
      if is_explore name && not (List.exists (fun (n, _, _) -> n = name) current)
      then Fmt.pr "  %-40s (in baseline, not rerun)@." name)
    base;
  if !regressed <> [] then begin
    Fmt.epr "@.bench-regress: %d section(s) regressed >%.0f%%: %a@."
      (List.length !regressed) tolerance
      Fmt.(list ~sep:comma string)
      !regressed;
    exit 1
  end;
  (* world-count gate: wall clock is noisy, world counts are exact. For
     every (program, engine) pair both sides measured, the reduction
     must never lose ground on the committed baseline. *)
  let base_worlds = read_baseline_worlds path in
  let cur_worlds = List.rev !json_worlds in
  let grew = ref [] in
  List.iter
    (fun (p, e, w) ->
      match
        List.find_opt (fun (bp, be, _) -> bp = p && be = e) base_worlds
      with
      | Some (_, _, bw) when w > bw ->
        grew := Fmt.str "%s/%s %d -> %d" p e bw w :: !grew
      | _ -> ())
    cur_worlds;
  if !grew <> [] then begin
    Fmt.epr "@.bench-regress: world counts grew over the baseline: %a@."
      Fmt.(list ~sep:comma string)
      !grew;
    exit 1
  end;
  if base_worlds <> [] && cur_worlds = [] then begin
    Fmt.epr
      "bench-regress: baseline has world counts but this run recorded none@.";
    exit 1
  end;
  Fmt.pr "  gate: ok (%d timing rows, %d world counts)@." (List.length current)
    (List.length cur_worlds)

(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let only =
    let rec find = function
      | "--only" :: s :: _ -> Some (String.split_on_char ',' s)
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let baseline =
    let rec find = function
      | "--baseline" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let tolerance =
    let rec find = function
      | "--tolerance" :: pct :: _ -> float_of_string pct
      | _ :: rest -> find rest
      | [] -> 25.
    in
    find argv
  in
  let cli_jobs =
    let rec find = function
      | "--jobs" :: n :: _ -> Some (int_of_string n)
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let sections =
    [
      ("fig13", fig13);
      ("fig11", fig11);
      ("fig2", fig2);
      ("np", np_reduction);
      ("fig3", fig3);
      ("compile", compile_section);
      ("diag", diag);
      ("link", link_section);
      ("recert", recert_section);
      ("hotpath", hotpath);
      ("explore", explore_section ~jobs:cli_jobs);
      ("serve", serve_section);
      ("fuzz", fuzz_section);
    ]
  in
  Fmt.pr "CASCompCert reproduction — benchmark harness@.";
  Fmt.pr "(one section per paper figure/table; see EXPERIMENTS.md)@.";
  (match only with
  | None -> List.iter (fun (_, f) -> f ()) sections
  | Some names ->
    List.iter
      (fun s ->
        match List.assoc_opt s sections with
        | Some f -> f ()
        | None ->
          Fmt.epr "unknown section %S; known: %a@." s
            Fmt.(list ~sep:comma string)
            (List.map fst sections);
          exit 1)
      names);
  Option.iter write_json json_path;
  Option.iter (fun path -> check_baseline ~path ~tolerance) baseline;
  Fmt.pr "@.all benches done.@."
