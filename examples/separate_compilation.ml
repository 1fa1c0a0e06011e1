(** Certified separate compilation — the example (2.1) from the paper's
    introduction, end to end through the certified linker. Module f calls
    the external function g with the address of a stack variable; the two
    modules are compiled *independently* into certified object files
    (.cao: code + symbol tables + the digest-chained certificate of every
    pass's footprint-preserving simulation), then linked into an image
    whose whole-program certificate is composed by checking the linking
    lemma's premises (Lem. 6).

    The demo also shows the incremental half of the story — the link's
    check of each entry is the build's end-to-end pair, so the link
    reads the builds' verdicts with zero checker steps; a link from an
    empty cache checks each entry once, and a relink with unchanged
    objects re-certifies from the cache — and the tamper story: flip
    one byte of an object's body or certificate and the linker refuses
    it.

    Run with: dune exec examples/separate_compilation.exe *)

open Cas_base
open Cas_langs
open Cas_conc

let f_src =
  {|
  // Module S1
  void f() {
    int a;
    int b;
    a = 0;
    b = 0;
    g(&b);
    print(a + b);
  }
|}

let g_src =
  {|
  // Module S2
  void g(int p) {
    *p = 3;
  }
|}

let dir =
  let d = Filename.concat (Filename.get_temp_dir_name ()) "casc_sep_demo" in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let path name = Filename.concat dir name
let read_file file = In_channel.with_open_bin file In_channel.input_all

let or_die = function
  | Ok v -> v
  | Error e ->
    Fmt.epr "error: %s@." e;
    exit 1

let () =
  Fmt.pr "== Build two certified object files, independently ==@.";
  let build name source =
    let o = or_die (Cas_link.Objfile.build ~name ~source ()) in
    let file = path (name ^ Cas_link.Objfile.extension) in
    Cas_link.Objfile.save o ~file;
    Fmt.pr "  %s: exports [%a], imports [%a]@.    body %s@.    cert %s@." file
      Fmt.(list ~sep:comma Cas_link.Objfile.pp_sym)
      o.Cas_link.Objfile.o_exports
      Fmt.(list ~sep:comma Cas_link.Objfile.pp_sym)
      o.Cas_link.Objfile.o_imports o.Cas_link.Objfile.o_body_digest
      o.Cas_link.Objfile.o_cert.Cas_link.Cert.chain;
    file
  in
  let f_cao = build "f" f_src in
  let g_cao = build "g" g_src in

  Fmt.pr "@.== Link them, composing the certificates (Lem. 6) ==@.";
  let link () =
    let files = [ f_cao; g_cao ] in
    or_die
      (Result.map_error Cas_cmd.message
         (Cas_cmd.link ~files ~certify:true ~entries:[ "f" ]
            (List.map read_file files)))
  in
  let out = link () in
  Option.iter
    (fun r -> Fmt.pr "%a@." Cascompcert.Framework.pp_compose r)
    out.Cas_link.Linker.lk_compose;
  Fmt.pr "  %a@." Cas_link.Linker.pp_stats out.Cas_link.Linker.lk_stats;
  let img = out.Cas_link.Linker.lk_image in
  let img_file = path ("prog" ^ Cas_link.Image.extension) in
  Cas_link.Image.save img ~file:img_file;
  Fmt.pr "  image %s@." img.Cas_link.Image.i_digest;

  (* the link above read every module verdict from the check its build
     ran, zero checker steps — the paper's per-module proof reuse,
     executable. From an empty cache the link checks each entry once *)
  Fmt.pr "@.== Link again from an empty cache ==@.";
  Cas_compiler.Cache.clear_memory ();
  Fmt.pr "  %a@." Cas_link.Linker.pp_stats (link ()).Cas_link.Linker.lk_stats;

  (* relinking with both objects unchanged: every module verdict comes
     back from the certificate cache *)
  Fmt.pr "@.== Relink, incrementally ==@.";
  let again = link () in
  Fmt.pr "  %a@." Cas_link.Linker.pp_stats again.Cas_link.Linker.lk_stats;
  assert (
    Cas_link.Image.(again.Cas_link.Linker.lk_image.i_digest = img.i_digest));
  Fmt.pr "  (same image digest; link order is canonical, objects cached)@.";

  Fmt.pr "@.== Run the linked image ==@.";
  (match World.load (Cas_link.Image.to_prog img) ~args:[] with
  | Error e -> Fmt.pr "  load error %a@." World.pp_load_error e
  | Ok w ->
    let tr, _ = Engine.traces w in
    Fmt.pr "  observable traces: %a@." Explore.TraceSet.pp tr.Explore.traces);

  Fmt.pr "@.== Tampering is detected ==@.";
  let tamper name tweak =
    match Cas_link.Objfile.of_string (tweak (read_file f_cao)) with
    | Ok _ -> Fmt.pr "  %s: NOT detected (bug!)@." name
    | Error e -> Fmt.pr "  %s rejected:@.    %s@." name e
  in
  (* naive first-occurrence substring replace *)
  let replace_once ~sub ~by s =
    let ls = String.length s and lsub = String.length sub in
    let rec find i =
      if i + lsub > ls then None
      else if String.sub s i lsub = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + lsub) (ls - i - lsub)
  in
  tamper "flipped byte in the code body"
    (replace_once ~sub:"\"arity\": 1" ~by:"\"arity\": 2");
  tamper "flipped verdict in the certificate"
    (replace_once ~sub:"\"tag\": \"ok\"" ~by:"\"tag\": \"no\"");

  (* the §2.2 trap still holds at the source level: a 'compiler' that
     caches a shared global across an external call is rejected by the
     module-local simulation (the callee may write it — the Rely) *)
  Fmt.pr "@.== A bad compiler is rejected ==@.";
  let src_h =
    Parse.clight
      {| int shared = 0;
       void h() { int a; int b; a = shared; k(); b = shared; print(a + b); } |}
  in
  let bad_h =
    Parse.clight
      {| int shared = 0;
       void h() { int a; int b; a = shared; k(); b = a; print(a + b); } |}
  in
  let env i =
    {
      Cascompcert.Simulation.ret = Value.Vint 0;
      perturb = Some ("shared", 0, 9 + i);
    }
  in
  let o =
    Cascompcert.Simulation.check ~src:(Clight.lang, src_h)
      ~tgt:(Clight.lang, bad_h) ~entry:"h" ~args:[] ~env ()
  in
  Fmt.pr "  caching a global across a call: %a@."
    Cascompcert.Simulation.pp_outcome o
