(** Pass-manager and certificate-cache tests: registry consistency,
    hit/miss behaviour of the content-addressed cache (including the
    memoized simulation verdicts), per-module invalidation, determinism
    across [--jobs], and the disk tier. *)

open Cas_langs
open Cas_compiler

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* hit/miss counts of one compiled unit, from its per-pass stats *)
let cache_counts (c : Driver.compiled) =
  List.fold_left
    (fun (h, m) st ->
      match st.Driver.st_cache with
      | `Hit -> (h + 1, m)
      | `Miss -> (h, m + 1)
      | `Off -> (h, m))
    (0, 0) c.Driver.c_stats

let fresh_cache () =
  Cache.set_default_dir None;
  Cache.clear_memory ();
  Cache.reset_stats ()

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_consistent () =
  check tint "pipeline length" 16 (Pipeline.length ());
  check tbool "driver exposes the registered pipeline" true
    (Driver.pass_names = Pipeline.names ());
  let names = Pipeline.names () in
  check tint "pass names are unique (cache keys collide otherwise)"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  check tbool "trace = source stage + one per pass" true
    (let c = Driver.compile_unit ~cache:false (Corpus.fib ()) in
     List.length c.Driver.c_trace = Pipeline.length () + 1)

let test_pipeline_version_stable () =
  (* the version hash depends only on the registered pass structure *)
  check tstr "version is deterministic" Pipeline.version Pipeline.version;
  check tint "version is an MD5 hex" 32 (String.length Pipeline.version)

(* ------------------------------------------------------------------ *)
(* Hit/miss behaviour                                                  *)
(* ------------------------------------------------------------------ *)

let test_second_compile_hits () =
  fresh_cache ();
  let p = Corpus.fib () in
  let c1 = Driver.compile_unit p in
  let c2 = Driver.compile_unit p in
  let h1, m1 = cache_counts c1 and h2, m2 = cache_counts c2 in
  check tint "cold run misses every pass" (Pipeline.length ()) m1;
  check tint "cold run has no hits" 0 h1;
  check tint "warm run hits every pass" (Pipeline.length ()) h2;
  check tint "warm run has no misses" 0 m2;
  (* byte-identical output *)
  check tstr "identical asm digest" (Cache.digest c1.Driver.c_asm)
    (Cache.digest c2.Driver.c_asm);
  check tbool "identical asm program" true (c1.Driver.c_asm = c2.Driver.c_asm);
  check tstr "identical context hash" c1.Driver.c_context c2.Driver.c_context

let test_cache_off_is_off () =
  fresh_cache ();
  let p = Corpus.fib () in
  let c = Driver.compile_unit ~cache:false p in
  check tbool "no cache interaction when disabled" true
    (List.for_all (fun st -> st.Driver.st_cache = `Off) c.Driver.c_stats);
  let c' = Driver.compile_unit ~cache:false p in
  check tstr "still deterministic" (Cache.digest c.Driver.c_asm)
    (Cache.digest c'.Driver.c_asm)

let test_options_are_part_of_key () =
  fresh_cache ();
  let p = Corpus.const_cse () in
  let c_opt = Driver.compile_unit p in
  let c_noopt =
    Driver.compile_unit ~options:{ Driver.optimize = false } p
  in
  check tbool "different options, different context" true
    (c_opt.Driver.c_context <> c_noopt.Driver.c_context);
  let _, m = cache_counts c_noopt in
  check tint "no-opt run cannot reuse optimized artifacts"
    (Pipeline.length ()) m

(* ------------------------------------------------------------------ *)
(* Verdict memoization                                                 *)
(* ------------------------------------------------------------------ *)

let test_verdicts_memoized () =
  fresh_cache ();
  let p = Corpus.fib () in
  let r1 = Cascompcert.Framework.check_passes p in
  let r2 = Cascompcert.Framework.check_passes p in
  check tbool "first certification executes the checker" true
    (List.exists
       (fun r -> r.Cascompcert.Framework.checker_steps > 0)
       r1);
  check tbool "second certification is fully cached" true
    (List.for_all (fun r -> r.Cascompcert.Framework.cached) r2);
  check tint "second certification executes zero checker steps" 0
    (List.fold_left
       (fun acc r -> acc + r.Cascompcert.Framework.checker_steps)
       0 r2);
  (* verdicts are identical *)
  check tbool "same outcomes" true
    (List.for_all2
       (fun a b ->
         a.Cascompcert.Framework.verdict.v_outcome
         = b.Cascompcert.Framework.verdict.v_outcome)
       r1 r2)

(* ------------------------------------------------------------------ *)
(* Per-module invalidation                                             *)
(* ------------------------------------------------------------------ *)

let test_touch_one_module () =
  fresh_cache ();
  let m_f =
    Parse.clight {| void f() { int b; b = 0; g(&b); print(b); } |}
  in
  let m_g = Parse.clight {| void g(int p) { *p = 3; } |} in
  let m_g' = Parse.clight {| void g(int p) { *p = 4; } |} in
  (* cold build of the two-module program *)
  (match Driver.compile_all [ m_f; m_g ] with
  | [ cf; cg ] ->
    check tint "f cold misses" (Pipeline.length ()) (snd (cache_counts cf));
    check tint "g cold misses" (Pipeline.length ()) (snd (cache_counts cg))
  | _ -> Alcotest.fail "expected two units");
  (* touch g only: f must be pure hits, g' pure misses *)
  match Driver.compile_all [ m_f; m_g' ] with
  | [ cf; cg' ] ->
    let hf, mf = cache_counts cf and hg, mg = cache_counts cg' in
    check tint "unchanged f is all hits" (Pipeline.length ()) hf;
    check tint "unchanged f recompiles nothing" 0 mf;
    check tint "edited g reuses nothing" 0 hg;
    check tint "edited g recompiles every pass" (Pipeline.length ()) mg
  | _ -> Alcotest.fail "expected two units"

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                                *)
(* ------------------------------------------------------------------ *)

let test_jobs_deterministic () =
  fresh_cache ();
  let units = List.map (fun (_, p, _) -> p) (Corpus.sequential_clients ()) in
  let digests jobs =
    List.map
      (fun c -> Cache.digest c.Driver.c_asm)
      (Driver.compile_all ~cache:false ~jobs units)
  in
  check tbool "jobs=2 produces identical outputs to jobs=1" true
    (digests 1 = digests 2);
  (* and a warm parallel build is all hits *)
  ignore (Driver.compile_all ~jobs:1 units);
  let warm = Driver.compile_all ~jobs:2 units in
  check tbool "parallel warm build is all hits" true
    (List.for_all
       (fun c -> snd (cache_counts c) = 0 && fst (cache_counts c) > 0)
       warm)

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)
(* ------------------------------------------------------------------ *)

let test_disk_tier_survives_memory_clear () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "casc-test-cache-%d" (Unix.getpid ()))
  in
  Cache.clear_memory ();
  Cache.reset_stats ();
  Cache.set_default_dir (Some dir);
  let p = Corpus.fib () in
  let c1 = Driver.compile_unit p in
  check tint "cold run misses" (Pipeline.length ()) (snd (cache_counts c1));
  (* wipe the memory tier: a second process would start like this *)
  Cache.clear_memory ();
  let c2 = Driver.compile_unit p in
  Cache.set_default_dir None;
  check tint "disk tier serves every pass" (Pipeline.length ())
    (fst (cache_counts c2));
  check tstr "identical output from disk"
    (Cache.digest c1.Driver.c_asm)
    (Cache.digest c2.Driver.c_asm)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "driver"
    [
      ( "registry",
        [
          Alcotest.test_case "pipeline consistent" `Quick
            test_registry_consistent;
          Alcotest.test_case "version stable" `Quick
            test_pipeline_version_stable;
        ] );
      ( "certificate cache",
        [
          Alcotest.test_case "second compile hits" `Quick
            test_second_compile_hits;
          Alcotest.test_case "cache off" `Quick test_cache_off_is_off;
          Alcotest.test_case "options in key" `Quick
            test_options_are_part_of_key;
          Alcotest.test_case "verdicts memoized" `Quick test_verdicts_memoized;
          Alcotest.test_case "touch one module" `Quick test_touch_one_module;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs deterministic" `Quick
            test_jobs_deterministic;
        ] );
      ( "disk tier",
        [
          Alcotest.test_case "survives memory clear" `Quick
            test_disk_tier_survives_memory_clear;
        ] );
    ]
