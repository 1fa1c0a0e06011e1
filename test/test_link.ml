(** Certified linker tests ([Cas_link]): object-file codec round-trips
    (qcheck over random x86 modules), link-order determinism, precise
    resolver errors, incremental relink via the certificate cache, and
    rejection of tampered objects. *)

open Cas_base
open Cas_langs
open Cas_link

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let fresh_cache () =
  Cas_compiler.Cache.set_default_dir None;
  Cas_compiler.Cache.clear_memory ();
  Cas_compiler.Cache.reset_stats ()

(* the paper's §2.1 example, as two separately-built modules *)
let f_src =
  {| void f() { int a; int b; a = 0; b = 0; g(&b); print(a + b); } |}

let g_src = {| void g(int p) { *p = 3; } |}

let build ?cache name source =
  match Objfile.build ?cache ~name ~source () with
  | Ok o -> o
  | Error e -> Alcotest.failf "build %s: %s" name e

(* ------------------------------------------------------------------ *)
(* Asm JSON codec: random-program round trips                          *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck.Gen.oneofl Mreg.all

let gen_binop =
  QCheck.Gen.oneofl
    [
      Ops.Oadd; Osub; Omul; Odiv; Omod; Oand; Oor; Oxor; Oshl; Oshr; Oeq;
      One; Olt; Ole; Ogt; Oge;
    ]

let gen_unop = QCheck.Gen.oneofl [ Ops.Oneg; Onot; Olognot ]
let gen_cond = QCheck.Gen.oneofl [ Asm.Ceq; Cne; Clt; Cle; Cgt; Cge ]

let gen_instr : Asm.instr QCheck.Gen.t =
  let open QCheck.Gen in
  let r = gen_reg and i = int_range (-64) 64 in
  let name = oneofl [ "f"; "g"; "h"; "print" ] in
  oneof
    [
      map2 (fun a b -> Asm.Pmov_ri (a, b)) r i;
      map2 (fun a b -> Asm.Pmov_rr (a, b)) r r;
      map2 (fun a g -> Asm.Plea_global (a, g)) r name;
      map2 (fun a b -> Asm.Plea_stack (a, b)) r i;
      map3 (fun op a b -> Asm.Pbinop_rr (op, a, b)) gen_binop r r;
      map3 (fun op a k -> Asm.Pbinop_ri (op, a, k)) gen_binop r i;
      map3 (fun op a (b, c) -> Asm.Pbinop3 (op, a, b, c)) gen_binop r (pair r r);
      map2 (fun op a -> Asm.Punop_r (op, a)) gen_unop r;
      map3 (fun a b ofs -> Asm.Pload (a, b, ofs)) r r i;
      map3 (fun a ofs b -> Asm.Pstore (a, ofs, b)) r i r;
      map2 (fun a ofs -> Asm.Pload_stack (a, ofs)) r i;
      map2 (fun ofs a -> Asm.Pstore_stack (ofs, a)) i r;
      map2 (fun a b -> Asm.Pcmp_rr (a, b)) r r;
      map2 (fun a k -> Asm.Pcmp_ri (a, k)) r i;
      map2 (fun c l -> Asm.Pjcc (c, l)) gen_cond (int_bound 9);
      map (fun l -> Asm.Pjmp l) (int_bound 9);
      map (fun l -> Asm.Plabel l) (int_bound 9);
      map3 (fun f ar res -> Asm.Pcall (f, ar, res)) name (int_bound 3) bool;
      map2 (fun f ar -> Asm.Ptailjmp (f, ar)) name (int_bound 3);
      map (fun res -> Asm.Pret res) bool;
      map2 (fun a b -> Asm.Plock_cmpxchg (a, b)) r r;
      return Asm.Pmfence;
    ]

let gen_gvar : Genv.gvar QCheck.Gen.t =
  let open QCheck.Gen in
  let* gname = oneofl [ "x"; "y"; "z" ] in
  let* gsize = int_range 1 4 in
  let* gperm = oneofl [ Perm.Normal; Perm.Object ] in
  let* ginit =
    list_size (int_bound gsize)
      (oneof
         [
           map (fun n -> Genv.Iint n) (int_range (-9) 9);
           map (fun g -> Genv.Iaddr g) (oneofl [ "x"; "y" ]);
           return Genv.Iundef;
         ])
  in
  return { Genv.gname; gsize; ginit; gperm }

let gen_asm : Asm.program QCheck.Gen.t =
  let open QCheck.Gen in
  let* nf = int_range 1 3 in
  let* funcs =
    flatten_l
      (List.init nf (fun i ->
           let* arity = int_bound 3 in
           let* framesize = int_bound 4 in
           let* is_object = bool in
           let* code = list_size (int_range 1 8) gen_instr in
           return
             {
               Asm.fname = Fmt.str "fn%d" i;
               arity;
               framesize;
               is_object;
               code;
             }))
  in
  let* globals =
    map
      (fun gs ->
        (* dedupe by name: duplicate declarations are a link concern *)
        List.fold_left
          (fun acc (g : Genv.gvar) ->
            if List.exists (fun (h : Genv.gvar) -> h.gname = g.gname) acc
            then acc
            else g :: acc)
          [] gs)
      (list_size (int_bound 3) gen_gvar)
  in
  return { Asm.funcs; globals }

let arb_asm =
  QCheck.make
    ~print:(fun (p : Asm.program) ->
      Fmt.str "%a" Fmt.(list ~sep:cut Asm.pp_func) p.Asm.funcs)
    gen_asm

let test_asm_roundtrip =
  QCheck.Test.make ~name:"Asm JSON codec round-trips" ~count:500 arb_asm
    (fun p ->
      match
        Cas_diag.Json.parse
          (Cas_diag.Json.to_string (Asmjson.program_to_json p))
      with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok j -> Asmjson.program_of_json j = p)

(* ------------------------------------------------------------------ *)
(* Object files                                                        *)
(* ------------------------------------------------------------------ *)

let test_objfile_roundtrip () =
  fresh_cache ();
  let o = build "f" f_src in
  let file = Filename.temp_file "casc_test" Objfile.extension in
  Objfile.save o ~file;
  (match Objfile.load ~file with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok o' ->
    check tbool "asm survives the round trip" true (o'.o_asm = o.o_asm);
    check tstr "body digest survives" o.o_body_digest o'.o_body_digest;
    check tstr "cert chain survives" o.o_cert.Cert.chain o'.o_cert.Cert.chain;
    check tbool "verifies after reload" true (Objfile.verify o' = Ok ()));
  Sys.remove file

let test_objfile_symbols () =
  fresh_cache ();
  let o_f = build "f" f_src and o_g = build "g" g_src in
  check tbool "f exports f" true (Objfile.defines o_f "f");
  check tbool "f imports g/1" true
    (List.exists
       (fun (s : Objfile.sym) -> s.s_name = "g" && s.s_arity = 1)
       o_f.o_imports);
  check tbool "print is builtin, not an import" true
    (not
       (List.exists (fun (s : Objfile.sym) -> s.s_name = "print") o_f.o_imports));
  check tbool "g has no imports" true (o_g.o_imports = [])

let test_build_deterministic () =
  fresh_cache ();
  let o1 = build "f" f_src in
  let o2 = build "f" f_src in
  check tstr "body digest deterministic" o1.o_body_digest o2.o_body_digest;
  check tstr "cert chain deterministic" o1.o_cert.Cert.chain
    o2.o_cert.Cert.chain

(* ------------------------------------------------------------------ *)
(* Resolver errors, with (file, symbol) attribution                    *)
(* ------------------------------------------------------------------ *)

let test_duplicate_export () =
  fresh_cache ();
  let o_g = build "g1" g_src and o_g' = build "g2" g_src in
  match Resolve.resolve [ o_g; o_g' ] with
  | Ok _ -> Alcotest.fail "duplicate definition not detected"
  | Error es ->
    check tbool "names symbol and both objects" true
      (List.exists
         (function
           | Resolve.Duplicate_export { sym = "g"; obj1 = "g1"; obj2 = "g2" }
             ->
             true
           | _ -> false)
         es)

let test_missing_import () =
  fresh_cache ();
  let o_f = build "f" f_src in
  match Resolve.resolve [ o_f ] with
  | Ok _ -> Alcotest.fail "missing import not detected"
  | Error es ->
    check tbool "names symbol, arity and requiring object" true
      (List.exists
         (function
           | Resolve.Missing_import { sym = "g"; arity = 1; obj = "f" } -> true
           | _ -> false)
         es)

let test_arity_mismatch () =
  fresh_cache ();
  let o_f =
    build "f2" {| void f() { int b; b = 0; g(&b, 1); print(b); } |}
  in
  let o_g = build "g" g_src in
  match Resolve.resolve [ o_f; o_g ] with
  | Ok _ -> Alcotest.fail "arity mismatch not detected"
  | Error es ->
    check tbool "names both arities and both objects" true
      (List.exists
         (function
           | Resolve.Arity_mismatch
               {
                 sym = "g";
                 def_obj = "g";
                 def_arity = 1;
                 use_obj = "f2";
                 use_arity = 2;
               } ->
             true
           | _ -> false)
         es)

let test_missing_entry () =
  fresh_cache ();
  let o_g = build "g" g_src in
  match Resolve.resolve ~entries:[ "main" ] [ o_g ] with
  | Ok _ -> Alcotest.fail "missing entry not detected"
  | Error es ->
    check tbool "entry named" true
      (List.exists
         (function
           | Resolve.Missing_entry { entry = "main" } -> true | _ -> false)
         es)

(* A thread starts with no arguments, so an entry point with parameters
   is refused at resolution, before any certificate is composed. *)
let test_entry_arity () =
  fresh_cache ();
  let o_f = build "f" f_src and o_g = build "g" g_src in
  let names_g =
    List.exists (function
      | Resolve.Entry_arity { entry = "g"; obj = "g"; arity = 1 } -> true
      | _ -> false)
  in
  (match Resolve.resolve ~entries:[ "g" ] [ o_f; o_g ] with
  | Ok _ -> Alcotest.fail "entry with parameters resolved"
  | Error es -> check tbool "names entry, object and arity" true (names_g es));
  match Linker.link ~certify:true ~entries:[ "g" ] [ o_f; o_g ] with
  | Error (Linker.Resolve_errors es) ->
    check tbool "the certified link stops at resolution" true (names_g es)
  | Error e -> Alcotest.failf "wrong error: %a" Linker.pp_error e
  | Ok _ -> Alcotest.fail "linked an entry with parameters"

(* Load tells an entry defined with parameters from an undefined one,
   under SC and on the x86-TSO machine. *)
let test_load_entry_arity () =
  let g = Parse.clight g_src in
  let asm = Cas_compiler.Driver.compile g in
  let expect what = function
    | Error (Cas_conc.World.Entry_arity ("g", 1)) -> ()
    | Error e ->
      Alcotest.failf "%s: wrong error: %a" what Cas_conc.World.pp_load_error e
    | Ok _ -> Alcotest.failf "%s: loaded an entry with parameters" what
  in
  expect "SC"
    (Cas_conc.World.load (Lang.prog [ Lang.Mod (Clight.lang, g) ] [ "g" ])
       ~args:[]);
  expect "TSO" (Cas_tso.Tso.load [ asm ] [ "g" ]);
  match
    Cas_conc.World.load (Lang.prog [ Lang.Mod (Clight.lang, g) ] [ "h" ])
      ~args:[]
  with
  | Error (Cas_conc.World.Unresolved_entry "h") -> ()
  | _ -> Alcotest.fail "an undefined entry is unresolved"

let test_world_rejects_duplicate_def () =
  let g = Parse.clight g_src in
  let p =
    Lang.prog [ Lang.Mod (Clight.lang, g); Lang.Mod (Clight.lang, g) ] [ "g" ]
  in
  match Cas_conc.World.load p ~args:[ [ Value.Vint 0 ] ] with
  | Error (Cas_conc.World.Duplicate_fundef "g") -> ()
  | Error e ->
    Alcotest.failf "wrong error: %a" Cas_conc.World.pp_load_error e
  | Ok _ -> Alcotest.fail "Load accepted a duplicate definition"

(* ------------------------------------------------------------------ *)
(* Linking: determinism, certification, incrementality, tampering      *)
(* ------------------------------------------------------------------ *)

let link_ok ?(certify = false) objs =
  match Linker.link ~certify ~entries:[ "f" ] objs with
  | Ok o -> o
  | Error e -> Alcotest.failf "link: %a" Linker.pp_error e

let test_link_order_determinism () =
  fresh_cache ();
  let o_f = build "f" f_src and o_g = build "g" g_src in
  let a = link_ok [ o_f; o_g ] and b = link_ok [ o_g; o_f ] in
  check tstr "image digest independent of argument order"
    a.lk_image.Image.i_digest b.lk_image.Image.i_digest;
  check tbool "module order is canonical" true
    (List.map
       (fun (m : Image.linked_module) -> m.lm_name)
       a.lk_image.Image.i_modules
    = List.map
        (fun (m : Image.linked_module) -> m.lm_name)
        b.lk_image.Image.i_modules)

let test_certified_link_and_image () =
  fresh_cache ();
  let o_f = build "f" f_src and o_g = build "g" g_src in
  let out = link_ok ~certify:true [ o_f; o_g ] in
  let img = out.lk_image in
  check tbool "image is certified" true img.Image.i_certified;
  check tbool "composed certificate digest recorded" true
    (img.Image.i_cert_digest <> "");
  (match out.lk_compose with
  | None -> Alcotest.fail "no compose report"
  | Some r ->
    check tbool "composition verdict ok" true
      r.Cascompcert.Framework.comp_ok;
    check tbool "confinement premise holds" true
      r.Cascompcert.Framework.comp_confinement.Cascompcert.Framework.ok;
    check tbool "boundary refinement holds" true
      r.Cascompcert.Framework.comp_boundary.Cascompcert.Framework.ok);
  (* the image runs, and the image file round-trips *)
  (match Cas_conc.World.load (Image.to_prog img) ~args:[] with
  | Error e ->
    Alcotest.failf "image does not load: %a" Cas_conc.World.pp_load_error e
  | Ok w ->
    let tr, _ = Cas_conc.Engine.traces w in
    check tbool "linked image prints 3" true
      (Cas_conc.Explore.TraceSet.mem
         ([ Event.Print 3 ], Cas_conc.Explore.SDone)
         tr.Cas_conc.Explore.traces));
  let file = Filename.temp_file "casc_test" Image.extension in
  Image.save img ~file;
  (match Image.load ~file with
  | Error e -> Alcotest.failf "image load: %s" e
  | Ok img' -> check tstr "image digest survives" img.Image.i_digest
                 img'.Image.i_digest);
  Sys.remove file

let cached_count (out : Linker.outcome) =
  match out.lk_compose with
  | None -> 0
  | Some r ->
    List.length
      (List.filter
         (fun (m : Cascompcert.Framework.compose_module_report) ->
           m.cm_cached)
         r.Cascompcert.Framework.comp_modules)

let verdict_count (out : Linker.outcome) =
  List.length (Option.get out.lk_compose).Cascompcert.Framework.comp_modules

(* The link's check of an entry is the build's [Compiler] pair, so a link
   straight after the builds reads every verdict from the cache. *)
let check_link_after_build what (out : Linker.outcome) =
  check tint (what ^ ": every verdict cached") (verdict_count out)
    (cached_count out);
  check tint (what ^ ": zero checker steps") 0
    out.lk_stats.Linker.l_checker_steps

let test_incremental_relink () =
  fresh_cache ();
  let o_f = build "f" f_src and o_g = build "g" g_src in
  check_link_after_build "link after build"
    (link_ok ~certify:true [ o_f; o_g ]);
  Cas_compiler.Cache.clear_memory ();
  let cold = link_ok ~certify:true [ o_f; o_g ] in
  check tint "cold link: no cached verdicts" 0 (cached_count cold);
  let warm = link_ok ~certify:true [ o_f; o_g ] in
  check tint "relink: every verdict cached" (verdict_count warm)
    (cached_count warm);
  check tint "relink executes zero checker steps" 0
    warm.lk_stats.Linker.l_checker_steps;
  (* touch one module, built without the cache so that the link itself
     must check it: only it re-verifies *)
  let o_g' = build ~cache:false "g" {| void g(int p) { *p = 4; } |} in
  let touched = link_ok ~certify:true [ o_f; o_g' ] in
  (match touched.lk_compose with
  | None -> Alcotest.fail "no compose report"
  | Some r ->
    List.iter
      (fun (m : Cascompcert.Framework.compose_module_report) ->
        check tbool
          (Fmt.str "module %s cached=%b as expected" m.cm_module m.cm_cached)
          (m.cm_module = "f") m.cm_cached)
      r.Cascompcert.Framework.comp_modules);
  check tbool "touching g changes the image digest" true
    (touched.lk_image.Image.i_digest <> cold.lk_image.Image.i_digest)

(* Two objects may carry the same module name with disjoint exports
   (Resolve allows it; casc build defaults names to file basenames).
   Verdict caching must key on the object itself, not its name —
   otherwise changing one of them can be answered with the other's
   stale cached verdict on relink. *)
let test_same_name_disjoint_relink () =
  fresh_cache ();
  let o_f = build "m" f_src and o_g = build "m" g_src in
  check_link_after_build "link after build"
    (link_ok ~certify:true [ o_f; o_g ]);
  Cas_compiler.Cache.clear_memory ();
  let cold = link_ok ~certify:true [ o_f; o_g ] in
  check tint "cold link: no cached verdicts" 0 (cached_count cold);
  (* touch only the g-carrying object, built without the cache: its
     verdict must re-run even though an unchanged object with the same
     module name is linked *)
  let o_g' = build ~cache:false "m" {| void g(int p) { *p = 4; } |} in
  let touched = link_ok ~certify:true [ o_f; o_g' ] in
  match touched.lk_compose with
  | None -> Alcotest.fail "no compose report"
  | Some r ->
    List.iter
      (fun (m : Cascompcert.Framework.compose_module_report) ->
        check tbool
          (Fmt.str "entry %s cached=%b as expected" m.cm_entry m.cm_cached)
          (m.cm_entry = "f") m.cm_cached)
      r.Cascompcert.Framework.comp_modules

(* The link's per-entry check is the build's [Compiler] pair: after a
   cached build, composing the object's decoded asm with its source
   serves every entry with the build's verdict, and from an empty cache
   it computes and stores the same verdict record under the same key. *)
let test_link_check_is_compiler_pair () =
  let open Cascompcert in
  fresh_cache ();
  let rng = Rng.make ~seed:21 in
  let generated =
    List.init 50 (fun i ->
        let g = Cas_fuzz.Gen.clight (Rng.split rng) ~size:(4 + (i mod 3 * 4)) in
        (Fmt.str "gen%d" i, g.Cas_fuzz.Gen.g_source))
  in
  List.iter
    (fun (name, source) ->
      let o = build name source in
      let p = Parse.clight source in
      (* the build's verdicts, as the module tier re-delivers them *)
      let compiler =
        List.filter_map
          (fun (r : Framework.pass_sim_report) ->
            if r.pass = "Compiler" then Some (r.entry, r.verdict) else None)
          (Framework.check_passes p)
      in
      let asm =
        match Objfile.of_string (Objfile.to_string o) with
        | Ok o -> o.Objfile.o_asm
        | Error e -> Alcotest.failf "%s: round trip: %s" name e
      in
      let src = Lang.Mod (Clight.lang, p) and tgt = Lang.Mod (Asm.lang, asm) in
      let compose () =
        (Framework.compose_certificates ~modules:[ (name, src, tgt) ]
           ~entries:[] ())
          .Framework.comp_modules
      in
      let build_verdict (m : Framework.compose_module_report) =
        match List.assoc_opt m.cm_entry compiler with
        | Some v -> v
        | None -> Alcotest.failf "%s/%s: no Compiler pair" name m.cm_entry
      in
      let served = compose () in
      check tint (name ^ ": every entry linked") (List.length compiler)
        (List.length served);
      List.iter
        (fun (m : Framework.compose_module_report) ->
          check tbool
            (Fmt.str "%s/%s served with the build's verdict" name m.cm_entry)
            true
            (m.cm_cached
            && m.cm_outcome = (build_verdict m).Simulation.v_outcome))
        served;
      Cas_compiler.Cache.clear_memory ();
      List.iter
        (fun (m : Framework.compose_module_report) ->
          let e = m.cm_entry in
          let arity = List.assoc e (Lang.defs tgt) in
          let key =
            Framework.verdict_key ~pair:"Compiler"
              ~bodies:(Lang.digest_fundef src e, Lang.digest_fundef tgt e)
              ~globals:
                ( Framework.structural_digest p.Clight.globals,
                  Framework.structural_digest asm.Asm.globals )
              ~args:(List.init arity (fun i -> Value.Vint (7 + i)))
          in
          let stored, _ =
            Cas_compiler.Cache.find_or_add Framework.verdicts key (fun () ->
                Alcotest.failf "%s/%s: nothing stored under its key" name e)
          in
          check tbool (Fmt.str "%s/%s checked again" name e) false m.cm_cached;
          check tbool
            (Fmt.str "%s/%s: the build's verdict record" name e)
            true
            (stored = build_verdict m))
        (compose ()))
    (Corpus.link_module_srcs @ generated)

let test_tampered_object_rejected () =
  fresh_cache ();
  let o_f = build "f" f_src in
  let text = Objfile.to_string o_f in
  let replace_once ~sub ~by s =
    let ls = String.length s and lsub = String.length sub in
    let rec find i =
      if i + lsub > ls then None
      else if String.sub s i lsub = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> Alcotest.failf "tamper target %S not found" sub
    | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + lsub) (ls - i - lsub)
  in
  let mentions sub s =
    let ls = String.length s and lsub = String.length sub in
    let rec go i =
      i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1))
    in
    go 0
  in
  (match Objfile.of_string (replace_once ~sub:"print" ~by:"paint" text) with
  | Ok _ -> Alcotest.fail "body tampering not detected"
  | Error e -> check tbool "body digest named" true (mentions "body digest" e));
  (match
     Objfile.of_string
       (replace_once ~sub:{|"tag": "ok"|} ~by:{|"tag": "no"|} text)
   with
  | Ok _ -> Alcotest.fail "certificate tampering not detected"
  | Error _ -> ());
  (* untampered text still loads *)
  match Objfile.of_string text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pristine object rejected: %s" e

let test_certify_rejects_forged_verdict () =
  fresh_cache ();
  let o_g = build "g" g_src in
  (* forge: flip a verdict tag but recompute nothing — load-time chain
     verification is what stands between this and a certified link *)
  let forged =
    {
      o_g with
      Objfile.o_cert =
        {
          o_g.Objfile.o_cert with
          Cert.verdicts =
            List.map
              (fun (e : Cert.entry) ->
                { e with e_tag = "ok"; e_detail = "forged verdict" })
              o_g.Objfile.o_cert.Cert.verdicts;
        };
    }
  in
  let forged =
    {
      forged with
      Objfile.o_cert =
        { forged.Objfile.o_cert with Cert.chain = "0000deadbeef" };
    }
  in
  match Objfile.of_string (Objfile.to_string forged) with
  | Ok _ -> Alcotest.fail "forged chain not detected"
  | Error _ -> (
    (* and even a self-consistent forgery changes the chain, so the
       linker's digest-keyed verdict cache cannot be poisoned by it *)
    let reforged_chain =
      Cert.chain_of
        ~seed:(Objfile.cert_seed forged)
        forged.Objfile.o_cert.Cert.verdicts
    in
    check tbool "re-chained forgery has a different chain" true
      (reforged_chain <> o_g.Objfile.o_cert.Cert.chain);
    match Objfile.verify o_g with
    | Ok () -> ()
    | Error e -> Alcotest.failf "pristine object fails verify: %s" e)

(* Pinned generator seed for reproducible runs, as in test_random. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string s with _ -> 0x5ca1ab1e)
  | None -> 0x5ca1ab1e

let () =
  let rand = Random.State.make [| qcheck_seed |] in
  Alcotest.run "link"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest ~rand test_asm_roundtrip;
          Alcotest.test_case "objfile round-trip" `Quick
            test_objfile_roundtrip;
          Alcotest.test_case "symbol tables" `Quick test_objfile_symbols;
          Alcotest.test_case "build is deterministic" `Quick
            test_build_deterministic;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "duplicate export" `Quick test_duplicate_export;
          Alcotest.test_case "missing import" `Quick test_missing_import;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "missing entry" `Quick test_missing_entry;
          Alcotest.test_case "entry with parameters" `Quick test_entry_arity;
          Alcotest.test_case "Load names an entry's arity" `Quick
            test_load_entry_arity;
          Alcotest.test_case "World.load rejects duplicate defs" `Quick
            test_world_rejects_duplicate_def;
        ] );
      ( "link",
        [
          Alcotest.test_case "link-order determinism" `Quick
            test_link_order_determinism;
          Alcotest.test_case "certified link and image" `Slow
            test_certified_link_and_image;
          Alcotest.test_case "incremental relink" `Slow
            test_incremental_relink;
          Alcotest.test_case "same-named objects keyed separately" `Slow
            test_same_name_disjoint_relink;
          Alcotest.test_case "the link check is the build's Compiler pair"
            `Slow test_link_check_is_compiler_pair;
          Alcotest.test_case "tampered object rejected" `Quick
            test_tampered_object_rejected;
          Alcotest.test_case "forged certificate rejected" `Quick
            test_certify_rejects_forged_verdict;
        ] );
    ]
