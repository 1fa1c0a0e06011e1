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
        (Framework.sim_ok r.Framework.verdict.v_outcome))
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
        && a.Framework.verdict.v_outcome = b.Framework.verdict.v_outcome))
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

(* A function of loop.c's shape: parameters, locals, a loop and a call,
   so every IR's definition of [sum] has code in every field. *)
let loop_src =
  {|
  int g = 3;
  int sum(int n) {
    int s;
    int t;
    s = 0;
    while (0 < n) {
      t = g;
      s = s + n;
      n = n - 1;
    }
    print(s);
    return s;
  }
|}

(* [f'] in place of the function of the same name *)
let replace fname funcs f' =
  List.map (fun f -> if fname f = fname f' then f' else f) funcs

(* [code] with its first instruction replaced by [x], or by [y] when it
   is [x] *)
let first_replaced x y = function
  | i :: rest -> (if i = x then y else x) :: rest
  | [] -> [ x ]

(* [name]'s definition in [lang] digests apart from each variant, a copy
   of the program whose [name] differs in the one field named. *)
let digests_apart ?(name = "sum") (type code) (lang : (code, _) Lang.t)
    (p : code) (variants : (string * code) list) =
  let digest q = Lang.digest_fundef (Lang.Mod (lang, q)) name in
  List.iter
    (fun (field, q) ->
      check tbool
        (Fmt.str "%s: %s changes the digest" lang.Lang.name field)
        false
        (digest q = digest p))
    variants

(* Every IR's digest covers every field of a definition: parameters,
   frame size or locals, entry node, and the code. *)
let test_fundef_digest_fields () =
  let module D = Cas_compiler.Driver in
  let a = D.compile_artifacts (Parse.clight loop_src) in
  let find fname funcs = List.find (fun f -> fname f = "sum") funcs in
  (let p = a.D.clight in
   let fn (f : Clight.func) = f.fname in
   let f = find fn p.funcs in
   let v f' = { p with funcs = replace fn p.funcs f' } in
   digests_apart Clight.lang p
     [
       ("parameters", v { f with fparams = f.fparams @ [ "m" ] });
       ("locals", v { f with fvars = ("u", 1) :: f.fvars });
       ("statement", v { f with fbody = Clight.Sseq (Sskip, f.fbody) });
     ]);
  (let p = a.D.csharpminor in
   let fn (f : Csharpminor.func) = f.fname in
   let f = find fn p.funcs in
   let v f' = { p with funcs = replace fn p.funcs f' } in
   digests_apart Csharpminor.lang p
     [
       ("parameters", v { f with fparams = f.fparams @ [ "m" ] });
       ("locals", v { f with fvars = ("u", 1) :: f.fvars });
       ("statement", v { f with fbody = Csharpminor.Sseq (Sskip, f.fbody) });
     ]);
  List.iter
    (fun (lang, (p : Cminor.program)) ->
      let fn (f : Cminor.func) = f.fname in
      let f = find fn p.funcs in
      let v f' = { p with funcs = replace fn p.funcs f' } in
      digests_apart lang p
        [
          ("parameters", v { f with fparams = f.fparams @ [ "m" ] });
          ("frame size", v { f with stacksize = f.stacksize + 1 });
          ("statement", v { f with fbody = Cminor.Sseq (Sskip, f.fbody) });
        ])
    [ (Cminor.lang, a.D.cminor); (Cminor.sel_lang, a.D.cminorsel) ];
  (let p = a.D.rtl in
   let fn (f : Rtl.func) = f.fname in
   let f = find fn p.funcs in
   let v f' = { p with funcs = replace fn p.funcs f' } in
   let n, i = Rtl.IMap.max_binding f.code in
   let other = fst (Rtl.IMap.min_binding f.code) in
   digests_apart Rtl.lang p
     [
       ("parameters", v { f with fparams = f.fparams @ [ 99 ] });
       ("frame size", v { f with stacksize = f.stacksize + 1 });
       ("entry node", v { f with entry = (if f.entry = n then other else n) });
       ( "instruction",
         v
           {
             f with
             code =
               Rtl.IMap.add n
                 (if i = Rtl.Inop n then Rtl.Ireturn None else Rtl.Inop n)
                 f.code;
           } );
     ]);
  (let p = a.D.ltl in
   let fn (f : Ltl.func) = f.fname in
   let f = find fn p.funcs in
   let v f' = { p with funcs = replace fn p.funcs f' } in
   let n, i = Ltl.IMap.max_binding f.code in
   let other = fst (Ltl.IMap.min_binding f.code) in
   digests_apart Ltl.lang p
     [
       ("parameters", v { f with fparams = f.fparams @ [ Mreg.S 9 ] });
       ("frame size", v { f with stacksize = f.stacksize + 1 });
       ("entry node", v { f with entry = (if f.entry = n then other else n) });
       ( "instruction",
         v
           {
             f with
             code =
               Ltl.IMap.add n
                 (if i = Ltl.Lnop n then Ltl.Lreturn None else Ltl.Lnop n)
                 f.code;
           } );
     ]);
  (let p = a.D.linear in
   let fn (f : Linearl.func) = f.fname in
   let f = find fn p.funcs in
   let v f' = { p with funcs = replace fn p.funcs f' } in
   digests_apart Linearl.lang p
     [
       ("parameters", v { f with fparams = f.fparams @ [ Mreg.S 9 ] });
       ("frame size", v { f with stacksize = f.stacksize + 1 });
       ( "instruction",
         v { f with code = first_replaced (Linearl.Lgoto 99) (Lgoto 98) f.code }
       );
     ]);
  (let p = a.D.mach in
   let fn (f : Machl.func) = f.fname in
   let f = find fn p.funcs in
   let v f' = { p with funcs = replace fn p.funcs f' } in
   digests_apart Machl.lang p
     [
       ("parameters", v { f with arity = f.arity + 1 });
       ("frame size", v { f with stacksize = f.stacksize + 1 });
       ("spill slots", v { f with nslots = f.nslots + 1 });
       ( "instruction",
         v { f with code = first_replaced (Machl.Mgoto 99) (Mgoto 98) f.code }
       );
     ]);
  (let p = a.D.asm in
   let fn (f : Asm.func) = f.fname in
   let f = find fn p.funcs in
   let v f' = { p with funcs = replace fn p.funcs f' } in
   digests_apart Asm.lang p
     [
       ("parameters", v { f with arity = f.arity + 1 });
       ("frame size", v { f with framesize = f.framesize + 1 });
       ("object marking", v { f with is_object = not f.is_object });
       ( "instruction",
         v { f with code = first_replaced (Asm.Pjmp 99) (Pjmp 98) f.code } );
     ]);
  let p = Cimp.gamma_lock () in
  let fn (f : Cimp.func) = f.fname in
  let f = List.find (fun f -> f.Cimp.fname = "lock") p.funcs in
  let v f' = { p with funcs = replace fn p.funcs f' } in
  digests_apart ~name:"lock" Cimp.lang p
    [
      ("parameters", v { f with fparams = [ "m" ] });
      ("statement", v { f with fbody = Cimp.Sseq (Sskip, f.fbody) });
    ]

(* A code map's shape depends on the order its keys were inserted, and
   so do its marshalled bytes; the digest does not. RTL and LTL share
   the map type ([Map.Make (Int)]). *)
let test_fundef_digest_map_order () =
  let module D = Cas_compiler.Driver in
  let module M = Rtl.IMap in
  let a = D.compile_artifacts (Parse.clight loop_src) in
  (* [p], whose [sum] has [code], against copies with [code] rebuilt in
     ascending and in descending key order *)
  let key_orders lang p code with_code =
    let rebuild order =
      List.fold_left (fun m (n, i) -> M.add n i m) M.empty
        (order (M.bindings code))
    in
    let up = rebuild Fun.id and down = rebuild List.rev in
    let bytes m = Marshal.to_string m [ Marshal.No_sharing ] in
    let name = lang.Lang.name in
    check tbool (name ^ ": equal maps") true (M.equal ( = ) up down);
    check tbool (name ^ ": marshalled apart") false (bytes up = bytes down);
    let digest q = Lang.digest_fundef (Lang.Mod (lang, q)) "sum" in
    List.iter
      (fun m ->
        check tbool
          (name ^ ": key order leaves the digest")
          true
          (digest (with_code m) = digest p))
      [ up; down ]
  in
  (let p = a.D.rtl in
   let fn (f : Rtl.func) = f.fname in
   let f = List.find (fun f -> fn f = "sum") p.funcs in
   key_orders Rtl.lang p f.code (fun code ->
       { p with funcs = replace fn p.funcs { f with code } }));
  let p = a.D.ltl in
  let fn (f : Ltl.func) = f.fname in
  let f = List.find (fun f -> fn f = "sum") p.funcs in
  key_orders Ltl.lang p f.code (fun code ->
      { p with funcs = replace fn p.funcs { f with code } })

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

(* The verdict key digests values, not memory: two equal globals lists
   whose parts share memory differently (a unit's stages share one list
   in the process that compiled them; a stage read from disk or an
   object decoded from JSON has its own copy) digest alike, and so do
   two keys whose equal components are shared differently. *)
let test_digests_ignore_sharing () =
  let fresh_x () = String.init 1 (fun _ -> 'x') in
  let globals x y = [ Genv.gvar x 1; Genv.gvar "p" 1 ~init:[ Genv.Iaddr y ] ] in
  let x = fresh_x () in
  let shared = globals x x and copied = globals (fresh_x ()) (fresh_x ()) in
  check tbool "equal globals" true (shared = copied);
  check tbool "globals digest ignores sharing" true
    (Framework.structural_digest shared = Framework.structural_digest copied);
  let key g g' =
    Framework.verdict_key ~pair:"Compiler" ~bodies:("a", "b") ~globals:(g, g')
      ~args:[]
  in
  let g = Framework.structural_digest shared in
  check tbool "verdict key ignores sharing" true
    (key g g = key g (String.init (String.length g) (String.get g)))

(* Deterministic companion of the random paranoid sweep: a full
   check_passes run with a collision audit (--paranoid-fp) observes no
   hash collision on any core of any IR the checker visits. *)
let test_paranoid_no_collisions () =
  fresh ();
  let audit = Lang.audit () in
  ignore (Framework.check_passes ~cache:false ~audit sq_unit_v1);
  check tint "no collisions" 0 (List.length (Lang.audit_collisions audit))

(* Run [f] with the certificate cache's disk tier in a fresh temporary
   directory, removed afterwards. *)
let with_cache_dir f =
  fresh ();
  let dir = Filename.temp_dir "casc-recert" "" in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () ->
      fresh ();
      rm_rf dir)
  @@ fun () ->
  Cas_compiler.Cache.set_default_dir (Some dir);
  f ()

(* The function tier's verdict key carries the pipeline version, so a
   cache directory written by another build serves none of its verdicts:
   a failing verdict planted under sq's SimplLocals key, as it reads with
   another version string, is never read back. The control plants it
   under the same layout with this build's version, and it is served. *)
let test_other_build_not_served () =
  let trace =
    (Cas_compiler.Driver.compile_unit ~cache:false sq_unit_v1)
      .Cas_compiler.Driver.c_trace
  in
  let src = snd (List.nth trace 0) and pass, tgt = List.nth trace 1 in
  let globals (Lang.Mod (l, code)) =
    Framework.structural_digest (l.Lang.globals_of code)
  in
  let key ~version =
    Framework.structural_digest
      ( version,
        pass,
        (Lang.digest_fundef src "sq", Lang.digest_fundef tgt "sq"),
        (globals src, globals tgt),
        [ Value.Vint 7 ] )
  in
  let planted =
    Simulation.Sim_fail { at_switch = 0; reason = "planted by another build" }
  in
  let served ~version =
    with_cache_dir @@ fun () ->
    ignore
      (Cas_compiler.Cache.find_or_add Framework.verdicts (key ~version)
         (fun () ->
           {
             Simulation.v_outcome = planted;
             v_switches = 0;
             v_steps_src = 0;
             v_steps_tgt = 0;
           }));
    Cas_compiler.Cache.clear_memory ();
    List.exists
      (fun (r : Framework.pass_sim_report) ->
        r.Framework.verdict.v_outcome = planted)
      (Framework.check_passes sq_unit_v1)
  in
  check tbool "planted under another version: not served" false
    (served ~version:"casc-0.0.0");
  check tbool "planted under this version: served" true
    (served ~version:Cas_compiler.Pipeline.version)

(* The verdict key digests the globals by value. A certify that reads
   its stages from disk gets a copy of the globals per stage, where a
   compile in this process shares one list between them; after an edit
   of [sq], [main]'s verdicts from the first must still serve the
   second. *)
let test_disk_stages_serve_verdicts () =
  let unit sq =
    Parse.clight
      ("int x = 1; " ^ sq ^ " void main() { int r; r = sq(4); print(r); }")
  in
  let p = unit "int sq(int n) { int t; t = n * n + x; return t; }" in
  with_cache_dir @@ fun () ->
  ignore (Cas_compiler.Driver.compile_unit p);
  Cas_compiler.Cache.clear_memory ();
  ignore (Framework.check_passes p);
  Cas_compiler.Cache.clear_memory ();
  let main =
    by_entry "main"
      (Framework.check_passes
         (unit "int sq(int n) { int t; t = x + n * n; return t; }"))
  in
  check tint "main: 17 verdicts" 17 (List.length main);
  List.iter
    (fun (r : Framework.pass_sim_report) ->
      check tbool (Fmt.str "main: %s cached" r.Framework.pass) true
        r.Framework.cached)
    main

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
          Alcotest.test_case "another build's verdicts not served" `Quick
            test_other_build_not_served;
          Alcotest.test_case "stages read from disk serve verdicts" `Quick
            test_disk_stages_serve_verdicts;
        ] );
      ( "digests",
        [
          Alcotest.test_case "fundef digest basics" `Quick test_fundef_digests;
          Alcotest.test_case "fundef digests cover every field" `Quick
            test_fundef_digest_fields;
          Alcotest.test_case "fundef digests ignore map key order" `Quick
            test_fundef_digest_map_order;
          Alcotest.test_case "digests along the compile trace" `Quick
            test_fundef_digests_along_trace;
          Alcotest.test_case "verdict key digests ignore sharing" `Quick
            test_digests_ignore_sharing;
        ] );
      ( "paranoid",
        [
          Alcotest.test_case "no collisions on a full pass sweep" `Quick
            test_paranoid_no_collisions;
        ] );
    ]
