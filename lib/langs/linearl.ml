(** Linear: LTL after linearization — a sequence of instructions with
    explicit labels and gotos instead of a CFG. Operands are still
    locations (registers or abstract slots). *)

open Cas_base

type loc = Mreg.loc
type op = loc Mreg.gop
type label = int

type instr =
  | Lop of op * loc
  | Lload of loc * int * loc
  | Lstore of loc * int * loc
  | Lcall of string * loc list * loc option
  | Ltailcall of string * loc list
  | Llabel of label
  | Lgoto of label
  | Lcond of loc * label  (** branch to label when the location is true *)
  | Lreturn of loc option

type func = {
  fname : string;
  fparams : loc list;
  stacksize : int;
  code : instr list;
}

type program = { funcs : func list; globals : Genv.gvar list }

let pp_instr ppf =
  let pp_loc = Mreg.pp_loc in
  function
  | Lop (op, d) -> Fmt.pf ppf "%a := %a" pp_loc d (Mreg.pp_gop pp_loc) op
  | Lload (d, ofs, r) -> Fmt.pf ppf "%a := [%a+%d]" pp_loc d pp_loc r ofs
  | Lstore (r, ofs, s) -> Fmt.pf ppf "[%a+%d] := %a" pp_loc r ofs pp_loc s
  | Lcall (f, args, dst) ->
    Fmt.pf ppf "%a%s(%a)"
      Fmt.(option (fun ppf l -> Fmt.pf ppf "%a := " pp_loc l))
      dst f
      Fmt.(list ~sep:comma pp_loc)
      args
  | Ltailcall (f, args) ->
    Fmt.pf ppf "tailcall %s(%a)" f Fmt.(list ~sep:comma Mreg.pp_loc) args
  | Llabel l -> Fmt.pf ppf "L%d:" l
  | Lgoto l -> Fmt.pf ppf "goto L%d" l
  | Lcond (r, l) -> Fmt.pf ppf "if %a goto L%d" pp_loc r l
  | Lreturn None -> Fmt.string ppf "return"
  | Lreturn (Some l) -> Fmt.pf ppf "return %a" pp_loc l

let pp_func ppf f =
  Fmt.pf ppf "@[<v2>%s(%a) [stack %d]:@ %a@]" f.fname
    Fmt.(list ~sep:comma Mreg.pp_loc)
    f.fparams f.stacksize
    Fmt.(list ~sep:cut pp_instr)
    f.code

type core = {
  fn : func;
  code : instr array;
  pc : int;
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

let find_label code l =
  let n = Array.length code in
  let rec go i =
    if i >= n then None
    else match code.(i) with Llabel l' when l' = l -> Some i | _ -> go (i + 1)
  in
  go 0

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
  else if c.pc < 0 || c.pc >= Array.length c.code then []
  else
    let tau ?(fp = Footprint.empty) ?m:(m' = m) ?locs pc =
      let locs = Option.value ~default:c.locs locs in
      [ Lang.Next (Msg.Tau, fp, { c with pc; locs }, m') ]
    in
    match c.code.(c.pc) with
    | Llabel _ -> tau (c.pc + 1)
    | Lgoto l -> (
      match find_label c.code l with
      | Some i -> tau i
      | None -> [ Lang.Stuck_abort ])
    | Lcond (r, l) ->
      if Value.is_true (loc_val c r) then
        match find_label c.code l with
        | Some i -> tau i
        | None -> [ Lang.Stuck_abort ]
      else tau (c.pc + 1)
    | Lop (op, d) -> (
      match eval_op c op with
      | Some v -> tau ~locs:(Mreg.LocMap.add d v c.locs) (c.pc + 1)
      | None -> [ Lang.Stuck_abort ])
    | Lload (d, ofs, r) -> (
      match addr_plus (loc_val c r) ofs with
      | Some a -> (
        match Memory.load m a with
        | Ok v ->
          tau ~fp:(Footprint.read1 a)
            ~locs:(Mreg.LocMap.add d v c.locs)
            (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Lstore (r, ofs, s) -> (
      match addr_plus (loc_val c r) ofs with
      | Some a -> (
        match Memory.store m a (loc_val c s) with
        | Ok m' -> tau ~fp:(Footprint.write1 a) ~m:m' (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Lcall (f, args, dst) ->
      [ Lang.Next
          ( Msg.Call (f, List.map (loc_val c) args),
            Footprint.empty,
            { c with pc = c.pc + 1; waiting = Some dst },
            m ) ]
    | Ltailcall (f, args) ->
      [ Lang.Next
          (Msg.TailCall (f, List.map (loc_val c) args), Footprint.empty, c, m)
      ]
    | Lreturn lo ->
      let v = match lo with None -> Value.Vundef | Some l -> loc_val c l in
      [ Lang.Next (Msg.Ret v, Footprint.empty, c, m) ]

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
          code = Array.of_list f.code;
          pc = 0;
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
  | Some f -> Hashx.value st f

let lang : (program, core) Lang.t =
  {
    name = "Linear";
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
