(** Certified object files (`.cao`): one compiled module together with
    everything a linker needs to compose it into a certified program —
    the x86 code, the exported and imported symbol tables, the source it
    was compiled from, and the certificate of the per-pass
    footprint-preserving simulations established at compile time.

    The on-disk format is versioned JSON ([Cas_diag.Json]); the *body*
    (everything except the digests) is serialized canonically and hashed,
    and the certificate's digest chain is seeded from that body digest
    ([Cert.seed]), so body and certificate seal each other: flip a byte
    of either and [load] rejects the file.

    The seal is *corruption-evident*, not forgery-proof: it is unkeyed
    content hashing over data the file itself carries, so whoever can
    rewrite the body can recompute the digests and re-fold the chain.
    Trusting a [.cao] means trusting the tree that built it; against a
    forged file the defense is [casc link --certify], which never
    believes the chain: it reads a module's verdict from the certificate
    cache only under the digests of the object's own recorded source and
    code, where only the checker writes, and otherwise re-runs the check
    from the recorded source.

    Symbols are stored by name, and the resolver matches them by
    name. *)

open Cas_langs
module Json = Cas_diag.Json

let extension = ".cao"
let format_version = 1

(** Externals resolved by the runtime, never by the linker (cf. the
    [print] case of [Cas_conc.World.local_steps]). *)
let builtins = [ "print" ]

(** An exported or imported function symbol, by name and arity. *)
type sym = { s_name : string; s_arity : int }

let pp_sym ppf s = Fmt.pf ppf "%s/%d" s.s_name s.s_arity

type t = {
  o_name : string;  (** module name, e.g. the source file's basename *)
  o_version : string;  (** toolchain version that produced the file *)
  o_format : int;
  o_source : string;  (** the mini-C source text, for re-certification *)
  o_options : Cas_compiler.Pass.options;
  o_context : string;  (** [Driver.context_hash] of the unit *)
  o_asm : Asm.program;
  o_exports : sym list;  (** functions this module defines, name-sorted *)
  o_imports : sym list;  (** functions it calls but does not define *)
  o_cert : Cert.t;
  o_body_digest : string;  (** digest of the canonical body JSON *)
}

let defines (o : t) (name : string) =
  List.exists (fun s -> String.equal s.s_name name) o.o_exports

(* ------------------------------------------------------------------ *)
(* Symbol tables from the compiled code                                *)
(* ------------------------------------------------------------------ *)

let exports_of_asm (p : Asm.program) : sym list =
  List.map (fun (f : Asm.func) -> { s_name = f.fname; s_arity = f.arity })
    p.funcs
  |> List.sort (fun a b -> String.compare a.s_name b.s_name)

(** Call targets not defined in the module and not built in — what the
    linker must find in some other object. *)
let imports_of_asm (p : Asm.program) : sym list =
  let defined = List.map (fun (f : Asm.func) -> f.fname) p.funcs in
  let is_external f =
    (not (List.mem f defined)) && not (List.mem f builtins)
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Asm.func) ->
      List.iter
        (function
          | Asm.Pcall (g, ar, _) | Asm.Ptailjmp (g, ar) ->
            if is_external g then Hashtbl.replace tbl (g, ar) ()
          | _ -> ())
        f.code)
    p.funcs;
  Hashtbl.fold (fun (g, ar) () acc -> { s_name = g; s_arity = ar } :: acc) tbl
    []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* JSON and digests                                                    *)
(* ------------------------------------------------------------------ *)

let sym_to_json s =
  Json.Obj [ ("name", Json.Str s.s_name); ("arity", Json.Int s.s_arity) ]

let sym_of_json j =
  {
    s_name = Json.to_str_exn (Json.member "name" j);
    s_arity = Json.to_int_exn (Json.member "arity" j);
  }

(** The canonical body: every field the digest commits to, in fixed
    order. *)
let body_json (o : t) : Json.t =
  Json.Obj
    [
      ("name", Json.Str o.o_name);
      ("source", Json.Str o.o_source);
      ("options", Asmjson.options_to_json o.o_options);
      ("context", Json.Str o.o_context);
      ("asm", Asmjson.program_to_json o.o_asm);
      ("exports", Json.List (List.map sym_to_json o.o_exports));
      ("imports", Json.List (List.map sym_to_json o.o_imports));
    ]

(** The digest of [version|format|body]. *)
let body_digest_of (o : t) : string =
  Json.digest
    ~prefix:(o.o_version ^ "|" ^ string_of_int o.o_format ^ "|")
    (body_json o)

let cert_seed (o : t) : string =
  Cert.seed ~version:o.o_version ~format:o.o_format
    ~body_digest:o.o_body_digest

let to_json (o : t) : Json.t =
  Json.Obj
    [
      ("magic", Json.Str "cao");
      ("version", Json.Str o.o_version);
      ("format", Json.Int o.o_format);
      ("body", body_json o);
      ("body_digest", Json.Str o.o_body_digest);
      ("cert", Cert.to_json o.o_cert);
    ]

let to_string (o : t) : string = Json.to_string (to_json o)

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

(** Compile [source] and certify every pipeline pass, producing the
    object. [Error] reports parse failures or a certificate with failing
    verdicts (a pass that does not simulate must not produce an object
    file). *)
let build ?(options = Cas_compiler.Driver.default_options) ?(cache = true)
    ~name ~(source : string) () : (t, string) result =
  match Parse.clight source with
  | exception Parse.Error (msg, pos) ->
    Error (Fmt.str "%s: parse error: %s at %a" name msg Lexer.pp_pos pos)
  | p ->
    let c = Cas_compiler.Driver.compile_unit ~options ~cache p in
    let reports = Cascompcert.Framework.check_passes ~cache ~options p in
    let o =
      {
        o_name = name;
        o_version = Cas_base.Version.v;
        o_format = format_version;
        o_source = source;
        o_options = options;
        o_context = c.Cas_compiler.Driver.c_context;
        o_asm = c.Cas_compiler.Driver.c_asm;
        o_exports = exports_of_asm c.Cas_compiler.Driver.c_asm;
        o_imports = imports_of_asm c.Cas_compiler.Driver.c_asm;
        o_cert = { verdicts = []; chain = "" };
        o_body_digest = "";
      }
    in
    let o = { o with o_body_digest = body_digest_of o } in
    let cert = Cert.of_reports ~seed:(cert_seed o) reports in
    let o = { o with o_cert = cert } in
    if Cert.ok cert then Ok o
    else
      Error
        (Fmt.str "%s: compilation produced failing verdicts:@ %a" name
           Fmt.(list ~sep:cut (fun ppf e -> Fmt.string ppf e.Cert.e_detail))
           (Cert.failures cert))

(* ------------------------------------------------------------------ *)
(* Load / save, with verification                                      *)
(* ------------------------------------------------------------------ *)

let of_json (j : Json.t) : (t, string) result =
  Json.decode
    (fun j ->
      (match Json.member_opt "magic" j with
      | Some (Json.Str "cao") -> ()
      | _ -> Json.decode_fail "not a certified object file (bad magic)");
      let format = Json.to_int_exn (Json.member "format" j) in
      if format <> format_version then
        Json.decode_fail "unsupported object format %d (expected %d)" format
          format_version;
      let body = Json.member "body" j in
      {
        o_name = Json.to_str_exn (Json.member "name" body);
        o_version = Json.to_str_exn (Json.member "version" j);
        o_format = format;
        o_source = Json.to_str_exn (Json.member "source" body);
        o_options = Asmjson.options_of_json (Json.member "options" body);
        o_context = Json.to_str_exn (Json.member "context" body);
        o_asm = Asmjson.program_of_json (Json.member "asm" body);
        o_exports =
          List.map sym_of_json
            (Json.to_list_exn (Json.member "exports" body));
        o_imports =
          List.map sym_of_json
            (Json.to_list_exn (Json.member "imports" body));
        o_cert = Cert.of_json (Json.member "cert" j);
        o_body_digest = Json.to_str_exn (Json.member "body_digest" j);
      })
    j

(** Integrity of a decoded object: the recorded body digest matches the
    body, and the certificate chain replays from its seed. *)
let verify (o : t) : (unit, string) result =
  let recomputed = body_digest_of o in
  if not (String.equal recomputed o.o_body_digest) then
    Error
      (Fmt.str
         "body digest mismatch: recorded %s, recomputed %s (object tampered \
          or corrupted)"
         o.o_body_digest recomputed)
  else Cert.verify ~seed:(cert_seed o) o.o_cert

(* a decoded object that passed [verify] *)
let of_verified_json (j : Json.t) : (t, string) result =
  Result.bind (of_json j) (fun o -> Result.map (fun () -> o) (verify o))

let of_string (s : string) : (t, string) result =
  Result.bind (Json.parse s) of_verified_json

(** Written atomically ([Json.save]): a crash mid-write must not leave a
    truncated object at the destination. *)
let save (o : t) ~(file : string) : unit = Json.save ~file (to_json o)

let load ~(file : string) : (t, string) result =
  Result.bind (Json.load ~file) of_verified_json

let pp ppf (o : t) =
  Fmt.pf ppf "@[<v>%s (%s, format %d)@ exports: %a@ imports: %a@ body %s@]"
    o.o_name o.o_version o.o_format
    Fmt.(list ~sep:comma pp_sym)
    o.o_exports
    Fmt.(list ~sep:comma pp_sym)
    o.o_imports o.o_body_digest
