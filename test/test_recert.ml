(** Function-granular recertification: the certificate stack is keyed by
    per-function body digests, so editing one function of a unit re-runs
    the checker only for that function's path through the pipeline, an
    identically-named function in another unit can never satisfy a stale
    key, and the cached/steps counters have a single source of truth
    (cached ⟺ zero checker steps in this run). *)

open Cas_base
open Cas_langs
open Cascompcert

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* every test starts from an empty in-memory certificate cache *)
let fresh () =
  Cas_compiler.Cache.set_default_dir None;
  Cas_compiler.Cache.clear_memory ()

let sq_v1 = "int sq(int n) { return n * n; }"

(* [sq] respelled, still squaring *)
let sq_v2 = "int sq(int n) { int t; t = n * n; return t; }"

let sq_unit sq =
  Parse.clight
    (sq
    ^ {|
    void main() {
      int r;
      r = sq(4);
      print(r);
    }
|}
    )

let sq_unit_v1 = sq_unit sq_v1

(* same unit with only [sq]'s body respelled — [main] is byte-identical *)
let sq_unit_v2 = sq_unit sq_v2

(* the four-module link corpus, with [powers]' [sq] respelled when
   [edited]: one function of seven changes *)
let link_corpus ~edited =
  let respell src =
    String.split_on_char '\n' src
    |> List.map (fun l -> if String.trim l = sq_v1 then sq_v2 else l)
    |> String.concat "\n"
  in
  List.map
    (fun (name, src) ->
      Parse.clight (if edited && name = "powers" then respell src else src))
    Corpus.link_module_srcs

(* the counters' single source of truth: a verdict came from the cache
   iff the checker executed no steps for it in this run (holds for every
   corpus function here — none certifies in zero steps when actually run) *)
let assert_stats_consistent reports =
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "%s/%s: cached iff zero checker steps" r.Framework.pass
           r.Framework.entry)
        true
        (r.Framework.cached = (r.Framework.checker_steps = 0)))
    reports

let assert_all_ok reports =
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "%s/%s verdict ok" r.Framework.pass r.Framework.entry)
        true
        (Framework.sim_ok r.Framework.outcome))
    reports

let by_entry entry reports =
  List.filter (fun (r : Framework.pass_sim_report) -> r.Framework.entry = entry)
    reports

let certify units = List.concat_map (fun u -> Framework.check_passes u) units

let checker_steps reports =
  List.fold_left
    (fun acc (r : Framework.pass_sim_report) -> acc + r.Framework.checker_steps)
    0 reports

(* Editing one function costs less than half the cold run's checker
   steps: the checker re-runs only for that function, and every other
   function is a pure cache hit on every pass. *)
let edit_one_function ~name ~before ~after =
  fresh ();
  let cold = certify before in
  assert_all_ok cold;
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "%s: cold %s/%s not cached" name r.Framework.pass
           r.Framework.entry)
        false r.Framework.cached)
    cold;
  let recert = certify after in
  assert_all_ok recert;
  let cold_steps = checker_steps cold and edit_steps = checker_steps recert in
  check tbool
    (Fmt.str "%s: edit costs %d checker steps, under half of cold's %d" name
       edit_steps cold_steps)
    true
    (2 * edit_steps < cold_steps);
  let edited, untouched =
    List.partition
      (fun (r : Framework.pass_sim_report) -> r.Framework.entry = "sq")
      recert
  in
  check tbool
    (Fmt.str "%s: recert has verdicts for sq and the others" name)
    true
    (edited <> [] && untouched <> []);
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "%s: edited sq: %s re-verified" name r.Framework.pass)
        false r.Framework.cached)
    edited;
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "%s: untouched %s: %s cached" name r.Framework.entry
           r.Framework.pass)
        true r.Framework.cached;
      check tint
        (Fmt.str "%s: untouched %s: %s zero steps" name r.Framework.entry
           r.Framework.pass)
        0 r.Framework.checker_steps)
    untouched;
  (cold, recert)

let test_edit_one_function () =
  let cold, recert =
    edit_one_function ~name:"sq unit" ~before:[ sq_unit_v1 ]
      ~after:[ sq_unit_v2 ]
  in
  (* the link corpus's [g] certifies in zero steps, so the counters'
     consistency is checked on the sq unit only *)
  assert_stats_consistent cold;
  assert_stats_consistent recert;
  ignore
    (edit_one_function ~name:"link corpus"
       ~before:(link_corpus ~edited:false)
       ~after:(link_corpus ~edited:true))

(* An unchanged unit re-certifies entirely from the cache. *)
let test_unchanged_all_cached () =
  fresh ();
  let cold = Framework.check_passes sq_unit_v1 in
  let warm = Framework.check_passes sq_unit_v1 in
  assert_stats_consistent warm;
  check tint "same verdict count" (List.length cold) (List.length warm);
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "warm %s/%s cached" r.Framework.pass r.Framework.entry)
        true r.Framework.cached;
      check tint
        (Fmt.str "warm %s/%s zero steps" r.Framework.pass r.Framework.entry)
        0 r.Framework.checker_steps)
    warm;
  (* outcomes are bit-identical to the cold run's *)
  List.iter2
    (fun (a : Framework.pass_sim_report) (b : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "%s/%s outcome unchanged" a.Framework.pass a.Framework.entry)
        true
        (a.Framework.pass = b.Framework.pass
        && a.Framework.entry = b.Framework.entry
        && a.Framework.outcome = b.Framework.outcome))
    cold warm

(* A same-named function with a different body in another unit can never
   satisfy a stale key: content addressing keys the verdict by the body
   digest, not the name. *)
let test_same_name_two_units () =
  fresh ();
  let unit_a =
    Parse.clight
      {|
      int f(int n) { return n + 1; }
      void main() {
        int r;
        r = f(1);
        print(r);
      }
|}
  in
  let unit_b =
    Parse.clight
      {|
      int f(int n) { return n + 2; }
      void main() {
        int r;
        r = f(1);
        print(r);
      }
|}
  in
  let ra = Framework.check_passes unit_a in
  assert_all_ok ra;
  let rb = Framework.check_passes unit_b in
  assert_all_ok rb;
  assert_stats_consistent rb;
  (* b's [f] has a different body — a's verdicts must not leak to it *)
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "other unit's f: %s not cached" r.Framework.pass)
        false r.Framework.cached)
    (by_entry "f" rb);
  (* and re-certifying a is still pure hits: b did not evict or corrupt *)
  let ra' = Framework.check_passes unit_a in
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool
        (Fmt.str "recheck a: %s/%s cached" r.Framework.pass r.Framework.entry)
        true r.Framework.cached)
    ra'

(* Per-function body digests: deterministic, sensitive to the body,
   distinct across pipeline stages, and unambiguous on absent names. *)
let test_fundef_digests () =
  let m1 = Lang.Mod (Clight.lang, sq_unit_v1) in
  let m2 = Lang.Mod (Clight.lang, sq_unit_v2) in
  check tbool "digest is deterministic" true
    (Lang.digest_fundef m1 "sq" = Lang.digest_fundef m1 "sq");
  check tbool "edited body changes the digest" false
    (Lang.digest_fundef m1 "sq" = Lang.digest_fundef m2 "sq");
  check tbool "sibling function's digest is unchanged" true
    (Lang.digest_fundef m1 "main" = Lang.digest_fundef m2 "main");
  check tbool "absent name digests differently from a defined one" false
    (Lang.digest_fundef m1 "nope" = Lang.digest_fundef m1 "sq");
  check tbool "two absent names digest differently" false
    (Lang.digest_fundef m1 "nope" = Lang.digest_fundef m1 "also_nope")

(* Across the whole compile trace (all ten IRs): the source-level edit is
   visible at the Clight stage, and the untouched [main]'s digest is
   stable at *every* stage — per-function compilation independence, the
   property that makes cross-pass function-granular caching sound. *)
let test_fundef_digests_along_trace () =
  let trace p =
    (Cas_compiler.Driver.compile_unit ~cache:false p)
      .Cas_compiler.Driver.c_trace
  in
  let t1 = trace sq_unit_v1 and t2 = trace sq_unit_v2 in
  check tint "same pipeline length" (List.length t1) (List.length t2);
  List.iter2
    (fun (stage1, m1) (stage2, m2) ->
      check tbool (Fmt.str "same stage (%s)" stage1) true (stage1 = stage2);
      check tbool
        (Fmt.str "%s: main's digest stable under sq's edit" stage1)
        true
        (Lang.digest_fundef m1 "main" = Lang.digest_fundef m2 "main"))
    t1 t2;
  let (stage0, first1), (_, first2) = (List.hd t1, List.hd t2) in
  check tbool
    (Fmt.str "%s: sq's digest changes with its body" stage0)
    false
    (Lang.digest_fundef first1 "sq" = Lang.digest_fundef first2 "sq")

(* Deterministic companion of the random paranoid sweep: a full
   check_passes run with a collision audit (--paranoid-fp) observes no
   hash collision on any core of any IR the checker visits. *)
let test_paranoid_no_collisions () =
  fresh ();
  let audit = Lang.audit () in
  ignore (Framework.check_passes ~cache:false ~audit sq_unit_v1);
  check tint "no collisions" 0 (List.length (Lang.audit_collisions audit))

let () =
  Alcotest.run "recert"
    [
      ( "function-granular",
        [
          Alcotest.test_case "edit one function of N" `Quick
            test_edit_one_function;
          Alcotest.test_case "unchanged unit is pure hits" `Quick
            test_unchanged_all_cached;
          Alcotest.test_case "same name, two units, no stale hit" `Quick
            test_same_name_two_units;
        ] );
      ( "digests",
        [
          Alcotest.test_case "fundef digest basics" `Quick test_fundef_digests;
          Alcotest.test_case "digests along the compile trace" `Quick
            test_fundef_digests_along_trace;
        ] );
      ( "paranoid",
        [
          Alcotest.test_case "no collisions on a full pass sweep" `Quick
            test_paranoid_no_collisions;
        ] );
    ]
