(** The symbol resolver: checks that a set of certified object files
    links into a closed program, with precise (file, symbol) attribution
    for every failure.

    Resolution runs once per link and keys its export table by symbol
    name, the form object files store symbols in. Objects are first put
    into canonical link order (sorted by module name, ties broken by
    body digest), which makes the linked image — and its digest —
    independent of the order the files were given on the command
    line. *)

open Cas_base

type error =
  | Duplicate_export of { sym : string; obj1 : string; obj2 : string }
      (** two objects define the same function — resolution would
          silently shadow one of them, so linking refuses (the
          [World.Duplicate_fundef] check, moved to link time) *)
  | Missing_import of { sym : string; arity : int; obj : string }
  | Arity_mismatch of {
      sym : string;
      def_obj : string;
      def_arity : int;
      use_obj : string;
      use_arity : int;
    }
  | Incompatible_global of { name : string; obj1 : string; obj2 : string }
  | Missing_entry of { entry : string }
  | Entry_arity of { entry : string; obj : string; arity : int }
      (** a thread entry point defined with parameters: a thread starts
          with no arguments, so no command could load the image *)

let pp_error ppf = function
  | Duplicate_export { sym; obj1; obj2 } ->
    Fmt.pf ppf "duplicate definition of %s: defined by both %s and %s" sym
      obj1 obj2
  | Missing_import { sym; arity; obj } ->
    Fmt.pf ppf "undefined symbol %s/%d, required by %s" sym arity obj
  | Arity_mismatch { sym; def_obj; def_arity; use_obj; use_arity } ->
    Fmt.pf ppf "%s calls %s with arity %d, but %s defines it with arity %d"
      use_obj sym use_arity def_obj def_arity
  | Incompatible_global { name; obj1; obj2 } ->
    Fmt.pf ppf "incompatible declarations of global %s in %s and %s" name
      obj1 obj2
  | Missing_entry { entry } ->
    Fmt.pf ppf "entry point %s is not defined by any object" entry
  | Entry_arity { entry; obj; arity } ->
    Fmt.pf ppf
      "entry point %s, defined by %s, takes %d argument%s; a thread entry \
       takes none"
      entry obj arity
      (if arity = 1 then "" else "s")

type resolution = {
  r_objects : Objfile.t list;  (** canonical link order *)
  r_defs : (string * string) list;  (** symbol name -> defining object *)
}

let canonical_order (objs : Objfile.t list) : Objfile.t list =
  List.sort
    (fun (a : Objfile.t) b ->
      match String.compare a.o_name b.o_name with
      | 0 -> String.compare a.o_body_digest b.o_body_digest
      | c -> c)
    objs

(** Resolve [objs] against [entries]; either a complete, conflict-free
    resolution or the full list of errors (not just the first).

    [label] names an object in error messages — it defaults to the
    module name, and [Cas_cmd.link] passes the on-disk file name so two
    files carrying the same module attribute precisely. *)
let resolve ?(entries = []) ?(label = fun (o : Objfile.t) -> o.o_name)
    (objs : Objfile.t list) : (resolution, error list) result =
  let objs = canonical_order objs in
  let errors = ref [] in
  let err e = errors := e :: !errors in
  (* export table: symbol name -> defining object, arity *)
  let defs : (string, string * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (o : Objfile.t) ->
      List.iter
        (fun (s : Objfile.sym) ->
          match Hashtbl.find_opt defs s.s_name with
          | Some (first, _) ->
            err
              (Duplicate_export
                 { sym = s.s_name; obj1 = first; obj2 = label o })
          | None -> Hashtbl.add defs s.s_name (label o, s.s_arity))
        o.o_exports)
    objs;
  (* every import must resolve, at the right arity *)
  List.iter
    (fun (o : Objfile.t) ->
      List.iter
        (fun (s : Objfile.sym) ->
          if not (List.mem s.s_name Objfile.builtins) then
            match Hashtbl.find_opt defs s.s_name with
            | None ->
              err
                (Missing_import
                   { sym = s.s_name; arity = s.s_arity; obj = label o })
            | Some (def_obj, def_arity) ->
              if def_arity <> s.s_arity then
                err
                  (Arity_mismatch
                     {
                       sym = s.s_name;
                       def_obj;
                       def_arity;
                       use_obj = label o;
                       use_arity = s.s_arity;
                     }))
        o.o_imports)
    objs;
  (* global variables must agree across objects *)
  let globals : (string, string * Genv.gvar) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (o : Objfile.t) ->
      List.iter
        (fun (g : Genv.gvar) ->
          match Hashtbl.find_opt globals g.gname with
          | None -> Hashtbl.add globals g.gname (label o, g)
          | Some (first, g') ->
            if not (Genv.compatible_gvar g g') then
              err
                (Incompatible_global
                   { name = g.gname; obj1 = first; obj2 = label o }))
        o.o_asm.globals)
    objs;
  (* thread entry points must be defined somewhere, without parameters *)
  List.iter
    (fun entry ->
      match Hashtbl.find_opt defs entry with
      | None -> err (Missing_entry { entry })
      | Some (obj, arity) ->
        if arity <> 0 then err (Entry_arity { entry; obj; arity }))
    entries;
  match List.rev !errors with
  | [] ->
    let r_defs =
      Hashtbl.fold (fun name (obj, _) acc -> (name, obj) :: acc) defs []
      |> List.sort compare
    in
    Ok { r_objects = objs; r_defs }
  | es -> Error es
