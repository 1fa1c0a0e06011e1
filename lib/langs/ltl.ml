(** LTL: RTL after register allocation — same CFG shape, but operands are
    locations (machine registers or abstract spill slots). Slots live in
    the abstract location set, not memory; the Stacking pass later places
    them in the activation record. *)

open Cas_base

module IMap = Map.Make (Int)

type node = int
type loc = Mreg.loc
type op = loc Mreg.gop

type instr =
  | Lnop of node
  | Lop of op * loc * node
  | Lload of loc * int * loc * node  (** dst := [addr + ofs] *)
  | Lstore of loc * int * loc * node  (** [addr + ofs] := src *)
  | Lcall of string * loc list * loc option * node
  | Ltailcall of string * loc list
  | Lcond of loc * node * node
  | Lreturn of loc option

type func = {
  fname : string;
  fparams : loc list;
  stacksize : int;
  entry : node;
  code : instr IMap.t;
}

type program = { funcs : func list; globals : Genv.gvar list }

let pp_instr ppf =
  let pp_loc = Mreg.pp_loc in
  function
  | Lnop n -> Fmt.pf ppf "nop -> %d" n
  | Lop (op, d, n) ->
    Fmt.pf ppf "%a := %a -> %d" pp_loc d (Mreg.pp_gop pp_loc) op n
  | Lload (d, ofs, r, n) ->
    Fmt.pf ppf "%a := [%a+%d] -> %d" pp_loc d pp_loc r ofs n
  | Lstore (r, ofs, s, n) ->
    Fmt.pf ppf "[%a+%d] := %a -> %d" pp_loc r ofs pp_loc s n
  | Lcall (f, args, dst, n) ->
    Fmt.pf ppf "%a%s(%a) -> %d"
      Fmt.(option (fun ppf l -> Fmt.pf ppf "%a := " pp_loc l))
      dst f
      Fmt.(list ~sep:comma pp_loc)
      args n
  | Ltailcall (f, args) ->
    Fmt.pf ppf "tailcall %s(%a)" f Fmt.(list ~sep:comma Mreg.pp_loc) args
  | Lcond (r, n1, n2) -> Fmt.pf ppf "if %a -> %d else %d" pp_loc r n1 n2
  | Lreturn None -> Fmt.string ppf "return"
  | Lreturn (Some l) -> Fmt.pf ppf "return %a" pp_loc l

let pp_func ppf f =
  Fmt.pf ppf "@[<v2>%s(%a) [stack %d, entry %d]:@ %a@]" f.fname
    Fmt.(list ~sep:comma Mreg.pp_loc)
    f.fparams f.stacksize f.entry
    Fmt.(list ~sep:cut (fun ppf (n, i) -> Fmt.pf ppf "%4d: %a" n pp_instr i))
    (IMap.bindings f.code)

type core = {
  fn : func;
  pc : node;
  locs : Value.t Mreg.LocMap.t;
  sp : int option;
  need_frame : bool;
  waiting : loc option option;
  genv : Genv.t;
}

let pp_core ppf c =
  Fmt.pf ppf "{%s pc=%d sp=%a [%a]%s}" c.fn.fname c.pc
    Fmt.(option ~none:(any "-") int)
    c.sp
    Fmt.(
      list ~sep:comma (fun ppf (l, v) ->
          Fmt.pf ppf "%a=%a" Mreg.pp_loc l Value.pp v))
    (Mreg.LocMap.bindings c.locs)
    (match c.waiting with None -> "" | Some _ -> " <waiting>")

let loc_val c l = Option.value ~default:Value.Vundef (Mreg.LocMap.find_opt l c.locs)

let eval_op c op =
  Mreg.eval_gop op ~read:(loc_val c)
    ~glob:(fun s -> Option.map (fun a -> Value.Vptr a) (Genv.find_addr c.genv s))
    ~sp:(fun ofs ->
      match c.sp with
      | Some b -> Some (Value.Vptr (Addr.make b ofs))
      | None -> None)

let addr_plus v ofs =
  match v with
  | Value.Vptr a -> Some (Addr.make a.Addr.block (a.Addr.ofs + ofs))
  | _ -> None

let step (fl : Flist.t) (c : core) (m : Memory.t) : core Lang.succ list =
  if c.waiting <> None then []
  else if c.need_frame then
    let m', b, fp = Memory.alloc m fl ~size:c.fn.stacksize ~perm:Perm.Normal in
    [ Lang.Next (Msg.Tau, fp, { c with need_frame = false; sp = Some b }, m') ]
  else
    match IMap.find_opt c.pc c.fn.code with
    | None -> []
    | Some i -> (
      let tau ?(fp = Footprint.empty) ?m:(m' = m) ?locs pc =
        let locs = Option.value ~default:c.locs locs in
        [ Lang.Next (Msg.Tau, fp, { c with pc; locs }, m') ]
      in
      match i with
      | Lnop n -> tau n
      | Lop (op, d, n) -> (
        match eval_op c op with
        | Some v -> tau ~locs:(Mreg.LocMap.add d v c.locs) n
        | None -> [ Lang.Stuck_abort ])
      | Lload (d, ofs, r, n) -> (
        match addr_plus (loc_val c r) ofs with
        | Some a -> (
          match Memory.load m a with
          | Ok v ->
            tau ~fp:(Footprint.read1 a) ~locs:(Mreg.LocMap.add d v c.locs) n
          | Error _ -> [ Lang.Stuck_abort ])
        | None -> [ Lang.Stuck_abort ])
      | Lstore (r, ofs, s, n) -> (
        match addr_plus (loc_val c r) ofs with
        | Some a -> (
          match Memory.store m a (loc_val c s) with
          | Ok m' -> tau ~fp:(Footprint.write1 a) ~m:m' n
          | Error _ -> [ Lang.Stuck_abort ])
        | None -> [ Lang.Stuck_abort ])
      | Lcall (f, args, dst, n) ->
        [ Lang.Next
            ( Msg.Call (f, List.map (loc_val c) args),
              Footprint.empty,
              { c with pc = n; waiting = Some dst },
              m ) ]
      | Ltailcall (f, args) ->
        [ Lang.Next
            (Msg.TailCall (f, List.map (loc_val c) args), Footprint.empty, c, m)
        ]
      | Lcond (r, n1, n2) ->
        if Value.is_true (loc_val c r) then tau n1 else tau n2
      | Lreturn lo ->
        let v = match lo with None -> Value.Vundef | Some l -> loc_val c l in
        [ Lang.Next (Msg.Ret v, Footprint.empty, c, m) ])

let init_core ~genv (p : program) ~entry ~args : core option =
  match List.find_opt (fun f -> String.equal f.fname entry) p.funcs with
  | None -> None
  | Some f ->
    if List.length f.fparams <> List.length args then None
    else
      let locs =
        List.fold_left2
          (fun locs l v -> Mreg.LocMap.add l v locs)
          Mreg.LocMap.empty f.fparams args
      in
      Some
        {
          fn = f;
          pc = f.entry;
          locs;
          sp = None;
          need_frame = f.stacksize > 0;
          waiting = None;
          genv;
        }

let after_external (c : core) (ret : Value.t option) : core option =
  match c.waiting with
  | None -> None
  | Some dst ->
    let locs =
      match dst with
      | None -> c.locs
      | Some l ->
        Mreg.LocMap.add l (Option.value ~default:(Value.Vint 0) ret) c.locs
    in
    Some { c with locs; waiting = None }

let hash_fundef st (p : program) name =
  match List.find_opt (fun f -> String.equal f.fname name) p.funcs with
  | None -> ()
  | Some f ->
    (* a map's marshalled bytes depend on its insertion order *)
    Hashx.value st
      (f.fname, f.fparams, f.stacksize, f.entry, IMap.bindings f.code)

let lang : (program, core) Lang.t =
  {
    name = "LTL";
    init_core;
    step;
    after_external;
    hash_core = Lang.hash_printed pp_core;
    hash_fundef;
    pp_core;
    globals_of = (fun p -> p.globals);
    defs_of =
      (fun p ->
        List.map (fun f -> (f.fname, List.length f.fparams)) p.funcs);
  }

let successors = function
  | Lnop n | Lop (_, _, n) | Lload (_, _, _, n) | Lstore (_, _, _, n)
  | Lcall (_, _, _, n) ->
    [ n ]
  | Lcond (_, n1, n2) -> [ n1; n2 ]
  | Ltailcall _ | Lreturn _ -> []
