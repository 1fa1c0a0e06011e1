(** JSON codec for compiled x86 modules ([Cas_langs.Asm]) and the global
    declarations they carry — the code section of a certified object file.

    The encoding is canonical: a given program has exactly one JSON tree
    (field order fixed, instructions as tagged arrays), so the object
    file's content digest can be taken over the serialized body and any
    byte flip that changes the decoded program also changes the digest.
    Symbols are stored by *name*. *)

open Cas_base
open Cas_langs
module Json = Cas_diag.Json

let fail = Json.decode_fail

(* ------------------------------------------------------------------ *)
(* Registers, operators, conditions                                    *)
(* ------------------------------------------------------------------ *)

let reg_to_json (r : Mreg.t) = Json.Str (Mreg.to_string r)

let reg_of_json j =
  let s = Json.to_str_exn j in
  match List.find_opt (fun r -> String.equal (Mreg.to_string r) s) Mreg.all with
  | Some r -> r
  | None -> fail "unknown register %S" s

let binop_tags : (Ops.binop * string) list =
  [
    (Oadd, "add"); (Osub, "sub"); (Omul, "mul"); (Odiv, "div"); (Omod, "mod");
    (Oand, "and"); (Oor, "or"); (Oxor, "xor"); (Oshl, "shl"); (Oshr, "shr");
    (Oeq, "eq"); (One, "ne"); (Olt, "lt"); (Ole, "le"); (Ogt, "gt");
    (Oge, "ge");
  ]

let unop_tags : (Ops.unop * string) list =
  [ (Oneg, "neg"); (Onot, "not"); (Olognot, "lognot") ]

let cond_tags : (Asm.cond * string) list =
  [ (Ceq, "e"); (Cne, "ne"); (Clt, "l"); (Cle, "le"); (Cgt, "g"); (Cge, "ge") ]

let tag_of tags what x =
  match List.assoc_opt x tags with
  | Some t -> Json.Str t
  | None -> fail "unprintable %s" what

let of_tag tags what j =
  let s = Json.to_str_exn j in
  match List.find_opt (fun (_, t) -> String.equal t s) tags with
  | Some (x, _) -> x
  | None -> fail "unknown %s %S" what s

let binop_to_json = tag_of binop_tags "binop"
let binop_of_json = of_tag binop_tags "binop"
let unop_to_json = tag_of unop_tags "unop"
let unop_of_json = of_tag unop_tags "unop"
let cond_to_json = tag_of cond_tags "condition"
let cond_of_json = of_tag cond_tags "condition"

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

let instr_to_json (i : Asm.instr) : Json.t =
  let l xs = Json.List xs in
  let s x = Json.Str x in
  let n x = Json.Int x in
  let r = reg_to_json in
  match i with
  | Pmov_ri (d, k) -> l [ s "mov_ri"; r d; n k ]
  | Pmov_rr (d, sr) -> l [ s "mov_rr"; r d; r sr ]
  | Plea_global (d, g) -> l [ s "lea_global"; r d; s g ]
  | Plea_stack (d, ofs) -> l [ s "lea_stack"; r d; n ofs ]
  | Pbinop_rr (op, d, sr) -> l [ s "binop_rr"; binop_to_json op; r d; r sr ]
  | Pbinop_ri (op, d, k) -> l [ s "binop_ri"; binop_to_json op; r d; n k ]
  | Pbinop3 (op, d, s1, s2) ->
    l [ s "binop3"; binop_to_json op; r d; r s1; r s2 ]
  | Punop_r (op, d) -> l [ s "unop_r"; unop_to_json op; r d ]
  | Pload (d, sr, ofs) -> l [ s "load"; r d; r sr; n ofs ]
  | Pstore (d, ofs, sr) -> l [ s "store"; r d; n ofs; r sr ]
  | Pload_stack (d, ofs) -> l [ s "load_stack"; r d; n ofs ]
  | Pstore_stack (ofs, sr) -> l [ s "store_stack"; n ofs; r sr ]
  | Pcmp_rr (a, b) -> l [ s "cmp_rr"; r a; r b ]
  | Pcmp_ri (a, k) -> l [ s "cmp_ri"; r a; n k ]
  | Pjcc (c, lbl) -> l [ s "jcc"; cond_to_json c; n lbl ]
  | Pjmp lbl -> l [ s "jmp"; n lbl ]
  | Plabel lbl -> l [ s "label"; n lbl ]
  | Pcall (f, ar, res) -> l [ s "call"; s f; n ar; Json.Bool res ]
  | Ptailjmp (f, ar) -> l [ s "tailjmp"; s f; n ar ]
  | Pret res -> l [ s "ret"; Json.Bool res ]
  | Plock_cmpxchg (a, sr) -> l [ s "lock_cmpxchg"; r a; r sr ]
  | Pmfence -> l [ s "mfence" ]

let instr_of_json (j : Json.t) : Asm.instr =
  let args = Json.to_list_exn j in
  let int = Json.to_int_exn and str = Json.to_str_exn in
  let bool = Json.to_bool_exn and r = reg_of_json in
  match args with
  | Json.Str tag :: rest -> (
    match (tag, rest) with
    | "mov_ri", [ d; k ] -> Pmov_ri (r d, int k)
    | "mov_rr", [ d; s ] -> Pmov_rr (r d, r s)
    | "lea_global", [ d; g ] -> Plea_global (r d, str g)
    | "lea_stack", [ d; ofs ] -> Plea_stack (r d, int ofs)
    | "binop_rr", [ op; d; s ] -> Pbinop_rr (binop_of_json op, r d, r s)
    | "binop_ri", [ op; d; k ] -> Pbinop_ri (binop_of_json op, r d, int k)
    | "binop3", [ op; d; s1; s2 ] ->
      Pbinop3 (binop_of_json op, r d, r s1, r s2)
    | "unop_r", [ op; d ] -> Punop_r (unop_of_json op, r d)
    | "load", [ d; s; ofs ] -> Pload (r d, r s, int ofs)
    | "store", [ d; ofs; s ] -> Pstore (r d, int ofs, r s)
    | "load_stack", [ d; ofs ] -> Pload_stack (r d, int ofs)
    | "store_stack", [ ofs; s ] -> Pstore_stack (int ofs, r s)
    | "cmp_rr", [ a; b ] -> Pcmp_rr (r a, r b)
    | "cmp_ri", [ a; k ] -> Pcmp_ri (r a, int k)
    | "jcc", [ c; l ] -> Pjcc (cond_of_json c, int l)
    | "jmp", [ l ] -> Pjmp (int l)
    | "label", [ l ] -> Plabel (int l)
    | "call", [ f; ar; res ] -> Pcall (str f, int ar, bool res)
    | "tailjmp", [ f; ar ] -> Ptailjmp (str f, int ar)
    | "ret", [ res ] -> Pret (bool res)
    | "lock_cmpxchg", [ a; s ] -> Plock_cmpxchg (r a, r s)
    | "mfence", [] -> Pmfence
    | _ -> fail "malformed instruction %S" tag)
  | _ -> fail "instruction must be a tagged array"

(* ------------------------------------------------------------------ *)
(* Functions and globals                                               *)
(* ------------------------------------------------------------------ *)

let func_to_json (f : Asm.func) : Json.t =
  Json.Obj
    [
      ("name", Json.Str f.fname);
      ("arity", Json.Int f.arity);
      ("frame", Json.Int f.framesize);
      ("object", Json.Bool f.is_object);
      ("code", Json.List (List.map instr_to_json f.code));
    ]

let func_of_json (j : Json.t) : Asm.func =
  {
    fname = Json.to_str_exn (Json.member "name" j);
    arity = Json.to_int_exn (Json.member "arity" j);
    framesize = Json.to_int_exn (Json.member "frame" j);
    is_object = Json.to_bool_exn (Json.member "object" j);
    code = List.map instr_of_json (Json.to_list_exn (Json.member "code" j));
  }

let init_to_json : Genv.init -> Json.t = function
  | Iint n -> Json.Int n
  | Iaddr s -> Json.Str s
  | Iundef -> Json.Null

let init_of_json : Json.t -> Genv.init = function
  | Json.Int n -> Iint n
  | Json.Str s -> Iaddr s
  | Json.Null -> Iundef
  | _ -> fail "malformed initializer"

let perm_to_json : Perm.t -> Json.t = function
  | Normal -> Json.Str "normal"
  | Object -> Json.Str "object"

let perm_of_json j : Perm.t =
  match Json.to_str_exn j with
  | "normal" -> Normal
  | "object" -> Object
  | s -> fail "unknown permission %S" s

let gvar_to_json (g : Genv.gvar) : Json.t =
  Json.Obj
    [
      ("name", Json.Str g.gname);
      ("size", Json.Int g.gsize);
      ("perm", perm_to_json g.gperm);
      ("init", Json.List (List.map init_to_json g.ginit));
    ]

let gvar_of_json (j : Json.t) : Genv.gvar =
  {
    gname = Json.to_str_exn (Json.member "name" j);
    gsize = Json.to_int_exn (Json.member "size" j);
    gperm = perm_of_json (Json.member "perm" j);
    ginit = List.map init_of_json (Json.to_list_exn (Json.member "init" j));
  }

(* ------------------------------------------------------------------ *)
(* Programs and compiler options                                       *)
(* ------------------------------------------------------------------ *)

let program_to_json (p : Asm.program) : Json.t =
  Json.Obj
    [
      ("funcs", Json.List (List.map func_to_json p.funcs));
      ("globals", Json.List (List.map gvar_to_json p.globals));
    ]

let program_of_json (j : Json.t) : Asm.program =
  {
    funcs = List.map func_of_json (Json.to_list_exn (Json.member "funcs" j));
    globals =
      List.map gvar_of_json (Json.to_list_exn (Json.member "globals" j));
  }

let options_to_json (o : Cas_compiler.Pass.options) : Json.t =
  Json.Obj [ ("optimize", Json.Bool o.optimize) ]

let options_of_json (j : Json.t) : Cas_compiler.Pass.options =
  { optimize = Json.to_bool_exn (Json.member "optimize" j) }
