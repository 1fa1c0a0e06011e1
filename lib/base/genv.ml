(** Global environments ge (Fig. 4): the statically-allocated global
    variables of a module, mapped to their blocks and initial values.

    A module declares its globals symbolically ([gvar]); the Load rule
    (implemented in [Cas_conc.World]) unions the declarations of all
    modules — defined only when compatible — and assigns block numbers,
    yielding a [Genv.t] that languages use to resolve global names. *)

type init = Iint of int | Iaddr of string | Iundef

type gvar = {
  gname : string;
  gsize : int;  (** number of word cells *)
  ginit : init list;  (** padded with [Iundef] up to [gsize] *)
  gperm : Perm.t;
}

let gvar ?(perm = Perm.Normal) ?(init = []) name size =
  { gname = name; gsize = size; ginit = init; gperm = perm }

let compatible_gvar g1 g2 =
  g1.gsize = g2.gsize && g1.ginit = g2.ginit && Perm.equal g1.gperm g2.gperm

module SMap = Map.Make (String)

type t = { table : (int * gvar) SMap.t (* name -> block, decl *) }

let empty = { table = SMap.empty }

(** Union of module global environments, as GE(Π) in Fig. 7. Returns
    [Error name] on incompatible duplicate declarations. *)
let link (decls : gvar list list) : (t, string) result =
  let exception Incompatible of string in
  try
    let all = List.concat decls in
    (* Deduplicate by name, checking compatibility. *)
    let merged =
      List.fold_left
        (fun acc g ->
          match SMap.find_opt g.gname acc with
          | None -> SMap.add g.gname g acc
          | Some g' ->
            if compatible_gvar g g' then acc else raise (Incompatible g.gname))
        SMap.empty all
    in
    (* Assign block numbers deterministically, in name order. *)
    let _, table =
      SMap.fold
        (fun name g (b, tbl) -> (b + 1, SMap.add name (b, g) tbl))
        merged (0, SMap.empty)
    in
    Ok { table }
  with Incompatible n -> Error n

let find_block ge name = Option.map fst (SMap.find_opt name ge.table)
let find_addr ge name = Option.map (fun b -> Addr.make b 0) (find_block ge name)
let block_count ge = SMap.cardinal ge.table

let bindings ge =
  SMap.bindings ge.table |> List.map (fun (n, (b, g)) -> (n, b, g))

(** Initialize memory with the global blocks (the σ = GE(Π) of Load). *)
let init_memory ge =
  List.fold_left
    (fun m (_, b, g) ->
      let m = Memory.alloc_block m ~block:b ~size:g.gsize ~perm:g.gperm in
      let rec fill m ofs = function
        | [] -> m
        | iv :: rest ->
          let v =
            match iv with
            | Iint n -> Value.Vint n
            | Iundef -> Value.Vundef
            | Iaddr name -> (
              match find_addr ge name with
              | Some a -> Value.Vptr a
              | None -> Value.Vundef)
          in
          let m =
            match Memory.store ~perm:g.gperm m (Addr.make b ofs) v with
            | Ok m -> m
            | Error _ -> m
          in
          fill m (ofs + 1) rest
      in
      fill m 0 g.ginit)
    Memory.empty (bindings ge)
