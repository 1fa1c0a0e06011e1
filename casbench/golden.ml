(** Known answers for generated programs.

    Corpus answers are written by hand in [Corpus]; generated programs
    get theirs from [golden/seed1.json] (compiled in), which [casbench
    pin] writes. An answer is pinned only where the naive and dpor
    engines both decided and agreed. Answers are keyed by a digest of
    the program's content, not by its position in the pool, so a
    generator change can only drop pins, never misapply one; programs of
    other seeds simply have no pin and are checked for crashes and
    engine agreement only. *)

type t = (string, bool) Hashtbl.t

let key ~kind parts =
  Digest.to_hex (Digest.string (String.concat "\000" (kind :: parts)))

let of_json (j : Bjson.t) : t =
  let tbl = Hashtbl.create 1024 in
  (match Bjson.member "answers" j with
  | Some (Bjson.Obj kvs) ->
    List.iter
      (function k, Bjson.Bool b -> Hashtbl.replace tbl k b | _ -> ())
      kvs
  | _ -> ());
  tbl

let to_json ~seed (t : t) : Bjson.t =
  Bjson.Obj
    [
      ("seed", Bjson.Num (float_of_int seed));
      ( "answers",
        Bjson.Obj
          (Hashtbl.fold (fun k b acc -> (k, Bjson.Bool b) :: acc) t []
          |> List.sort compare) );
    ]

let builtin : t Lazy.t =
  lazy
    (match Bjson.parse Golden_data.seed1 with
    | Ok j -> of_json j
    | Error e -> failwith ("golden/seed1.json: " ^ e))
