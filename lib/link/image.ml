(** Linked images (`.cai`): the output of [casc link] — every module's
    compiled code in canonical link order, the thread entry points, and
    the composed whole-program certificate digest when the link was
    certified. Like object files, the body is digest-sealed: [load]
    recomputes the digest and rejects modified images (corruption
    evidence, with the same scope and caveats as [Objfile]). *)

open Cas_base
open Cas_langs
module Json = Cas_diag.Json

let extension = ".cai"
let format_version = 1

type linked_module = {
  lm_name : string;
  lm_obj_digest : string;  (** body digest of the object it came from *)
  lm_asm : Asm.program;
}

type t = {
  i_version : string;
  i_format : int;
  i_entries : string list;
  i_modules : linked_module list;  (** canonical link order *)
  i_certified : bool;
      (** the composed certificate (Lem. 6 premises) verified at link
          time *)
  i_cert_digest : string;  (** digest of the composed certificate, or "" *)
  i_digest : string;  (** digest of the canonical body *)
}

(** The image as a runnable program (all modules under x86-SC). *)
let to_prog ?entries (img : t) : Lang.prog =
  Lang.prog
    (List.map (fun m -> Lang.Mod (Asm.lang, m.lm_asm)) img.i_modules)
    (Option.value ~default:img.i_entries entries)

let asm_modules (img : t) : Asm.program list =
  List.map (fun m -> m.lm_asm) img.i_modules

(* ------------------------------------------------------------------ *)
(* JSON and digests                                                    *)
(* ------------------------------------------------------------------ *)

let module_to_json (m : linked_module) : Json.t =
  Json.Obj
    [
      ("name", Json.Str m.lm_name);
      ("obj_digest", Json.Str m.lm_obj_digest);
      ("asm", Asmjson.program_to_json m.lm_asm);
    ]

let module_of_json (j : Json.t) : linked_module =
  {
    lm_name = Json.to_str_exn (Json.member "name" j);
    lm_obj_digest = Json.to_str_exn (Json.member "obj_digest" j);
    lm_asm = Asmjson.program_of_json (Json.member "asm" j);
  }

let body_json (img : t) : Json.t =
  Json.Obj
    [
      ("entries", Json.List (List.map (fun e -> Json.Str e) img.i_entries));
      ("modules", Json.List (List.map module_to_json img.i_modules));
      ("certified", Json.Bool img.i_certified);
      ("cert_digest", Json.Str img.i_cert_digest);
    ]

(** The digest of [version|format|body], as [Objfile.body_digest_of]. *)
let digest_of (img : t) : string =
  Json.digest
    ~prefix:(img.i_version ^ "|" ^ string_of_int img.i_format ^ "|")
    (body_json img)

(** Assemble an image, computing its digest. *)
let make ~entries ~modules ~certified ~cert_digest : t =
  let img =
    {
      i_version = Version.v;
      i_format = format_version;
      i_entries = entries;
      i_modules = modules;
      i_certified = certified;
      i_cert_digest = cert_digest;
      i_digest = "";
    }
  in
  { img with i_digest = digest_of img }

let to_json (img : t) : Json.t =
  Json.Obj
    [
      ("magic", Json.Str "cai");
      ("version", Json.Str img.i_version);
      ("format", Json.Int img.i_format);
      ("body", body_json img);
      ("digest", Json.Str img.i_digest);
    ]

let to_string (img : t) : string = Json.to_string (to_json img)

let of_json (j : Json.t) : (t, string) result =
  Json.decode
    (fun j ->
      (match Json.member_opt "magic" j with
      | Some (Json.Str "cai") -> ()
      | _ -> Json.decode_fail "not a linked image (bad magic)");
      let format = Json.to_int_exn (Json.member "format" j) in
      if format <> format_version then
        Json.decode_fail "unsupported image format %d (expected %d)" format
          format_version;
      let body = Json.member "body" j in
      {
        i_version = Json.to_str_exn (Json.member "version" j);
        i_format = format;
        i_entries =
          List.map Json.to_str_exn
            (Json.to_list_exn (Json.member "entries" body));
        i_modules =
          List.map module_of_json
            (Json.to_list_exn (Json.member "modules" body));
        i_certified = Json.to_bool_exn (Json.member "certified" body);
        i_cert_digest = Json.to_str_exn (Json.member "cert_digest" body);
        i_digest = Json.to_str_exn (Json.member "digest" j);
      })
    j

(* a decoded image whose recorded digest matches its body *)
let of_verified_json (j : Json.t) : (t, string) result =
  match of_json j with
  | Error e -> Error e
  | Ok img ->
    let recomputed = digest_of img in
    if String.equal recomputed img.i_digest then Ok img
    else
      Error
        (Fmt.str
           "image digest mismatch: recorded %s, recomputed %s (image \
            tampered or corrupted)"
           img.i_digest recomputed)

let of_string (s : string) : (t, string) result =
  Result.bind (Json.parse s) of_verified_json

(** Written atomically ([Json.save]), like [Objfile.save]: a crash
    mid-write must not leave a truncated image behind. *)
let save (img : t) ~(file : string) : unit = Json.save ~file (to_json img)

let load ~(file : string) : (t, string) result =
  Result.bind (Json.load ~file) of_verified_json

let pp ppf (img : t) =
  Fmt.pf ppf "@[<v>image %s (%d module%s)%s@ entries: %a@ %a@]" img.i_digest
    (List.length img.i_modules)
    (if List.length img.i_modules = 1 then "" else "s")
    (if img.i_certified then " [certified]" else "")
    Fmt.(list ~sep:comma string)
    img.i_entries
    Fmt.(
      list ~sep:cut (fun ppf m ->
          Fmt.pf ppf "%-16s %s" m.lm_name m.lm_obj_digest))
    img.i_modules
