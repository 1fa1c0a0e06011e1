(** A minimal JSON tree, printer, and parser — just enough for witness
    files and Chrome trace exports. Deliberately dependency-free (the
    toolchain image carries no JSON library) and integer-only: nothing we
    serialize needs floats, and omitting them keeps round-trips exact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* copy maximal runs of chars that need no escaping in one blit — string
   payloads (verdict texts, sources, object files) are the bulk of every
   frame, and almost none of their bytes escape *)
let escape b s =
  let n = String.length s in
  let flush start stop =
    if stop > start then Buffer.add_substring b s start (stop - start)
  in
  let rec go start i =
    if i >= n then flush start i
    else
      match String.unsafe_get s i with
      | '"' ->
        flush start i;
        Buffer.add_string b "\\\"";
        go (i + 1) (i + 1)
      | '\\' ->
        flush start i;
        Buffer.add_string b "\\\\";
        go (i + 1) (i + 1)
      | '\n' ->
        flush start i;
        Buffer.add_string b "\\n";
        go (i + 1) (i + 1)
      | '\r' ->
        flush start i;
        Buffer.add_string b "\\r";
        go (i + 1) (i + 1)
      | '\t' ->
        flush start i;
        Buffer.add_string b "\\t";
        go (i + 1) (i + 1)
      | c when Char.code c < 0x20 ->
        flush start i;
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c));
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

let to_buffer b (j : t) =
  let rec go ind j =
    match j with
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int n -> Buffer.add_string b (string_of_int n)
    | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_string b "[";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '\n';
          Buffer.add_string b (String.make (ind + 2) ' ');
          go (ind + 2) x)
        xs;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make ind ' ');
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '\n';
          Buffer.add_string b (String.make (ind + 2) ' ');
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\": ";
          go (ind + 2) v)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make ind ' ');
      Buffer.add_char b '}'
  in
  go 0 j

let to_string (j : t) : string =
  let b = Buffer.create 1024 in
  to_buffer b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(** Typed parse failures, for callers that must react to *why* an input
    was rejected (the daemon rejects oversized and over-deep frames with
    a structured error instead of dying in a parser): *)
type parse_error =
  | Too_large of { size : int; limit : int }
      (** the input exceeds [max_size] bytes — rejected before scanning *)
  | Too_deep of { limit : int }
      (** array/object nesting exceeds [max_depth] — rejected without
          recursing further, so hostile inputs cannot overflow the stack *)
  | Syntax of { offset : int; msg : string }  (** malformed JSON *)

let pp_parse_error ppf = function
  | Too_large { size; limit } ->
    Fmt.pf ppf "input too large (%d bytes, limit %d)" size limit
  | Too_deep { limit } -> Fmt.pf ppf "nesting too deep (limit %d)" limit
  | Syntax { offset; msg } -> Fmt.pf ppf "%s at offset %d" msg offset

exception Parse_error of parse_error

(** Default limits of [parse_result]: far above anything we serialize,
    far below anything that could exhaust memory or stack. *)
let default_max_size = 64 * 1024 * 1024

let default_max_depth = 256

(** Parse with input-size and nesting-depth limits, never raising. This
    is the only parse entry point the daemon uses: every malformed,
    oversized, or adversarially nested frame comes back as a typed
    [Error]. *)
let parse_result ?(max_size = default_max_size)
    ?(max_depth = default_max_depth) (s : string) : (t, parse_error) result =
  let n = String.length s in
  if n > max_size then Error (Too_large { size = n; limit = max_size })
  else begin
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Syntax { offset = !pos; msg })) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      &&
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Fmt.str "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Fmt.str "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    (* blit maximal escape-free runs instead of walking char by char —
       same acceptance (any raw byte except '"' and '\\' passes through,
       as before), just without an option allocation per byte *)
    let plain_run () =
      let start = !pos in
      while
        !pos < n
        &&
        match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
      do
        incr pos
      done;
      if !pos > start then Buffer.add_substring b s start (!pos - start)
    in
    let rec go () =
      plain_run ();
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'b' -> Buffer.add_char b '\b'; advance ()
        | Some 'f' -> Buffer.add_char b '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail "bad \\u escape"
          | Some code ->
            (* our own output only \u-escapes control characters; decode
               the Latin-1 subset and reject the rest *)
            if code < 0x100 then Buffer.add_char b (Char.chr code)
            else fail "non-latin1 \\u escape")
        | _ -> fail "bad escape");
        go ()
      | Some _ -> assert false (* plain_run stops only at '"' or '\\' *)
    in
    go ();
    Buffer.contents b
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some '0' .. '9' ->
        advance ();
        digits ()
      | _ -> ()
    in
    digits ();
    if !pos = start then fail "expected number";
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    if depth > max_depth then raise (Parse_error (Too_deep { limit = max_depth }));
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> Int (parse_int ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some c -> fail (Fmt.str "unexpected %C" c)
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then
      Error (Syntax { offset = !pos; msg = "trailing garbage" })
    else Ok v
  with Parse_error e -> Error e
  end

(** The historical string-error entry point, now a thin wrapper: same
    syntax acceptance as before for every witness/trace file we have
    ever written, plus a deep safety net against stack exhaustion (no
    artifact of ours nests beyond a handful of levels). *)
let parse (s : string) : (t, string) result =
  match parse_result ~max_size:max_int ~max_depth:10_000 s with
  | Ok v -> Ok v
  | Error e -> Error (Fmt.str "%a" pp_parse_error e)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

(** [j] and a newline, written atomically: to a temporary file beside
    [file], then renamed over it, so a crash mid-write never leaves a
    truncated file. Raises [Sys_error] naming the temporary file when
    [file]'s directory cannot be written. *)
let save ~(file : string) (j : t) : unit =
  let tmp =
    Fmt.str "%s.tmp.%d.%d" file (Unix.getpid ()) (Domain.self () :> int)
  in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (to_string j);
      output_char oc '\n');
  Sys.rename tmp file

(** [file]'s JSON tree; an unreadable file or a parse error is [Error]. *)
let load ~(file : string) : (t, string) result =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> parse s

(* ------------------------------------------------------------------ *)
(* Accessors (decoding helpers)                                        *)
(* ------------------------------------------------------------------ *)

exception Decode_error of string

let decode_fail fmt = Fmt.kstr (fun m -> raise (Decode_error m)) fmt

let member key = function
  | Obj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> decode_fail "missing field %S" key)
  | _ -> decode_fail "expected object with field %S" key

let member_opt key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int_exn = function Int n -> n | _ -> decode_fail "expected int"
let to_str_exn = function Str s -> s | _ -> decode_fail "expected string"
let to_bool_exn = function Bool b -> b | _ -> decode_fail "expected bool"
let to_list_exn = function List l -> l | _ -> decode_fail "expected array"

(** Run a decoder, turning [Decode_error] into [Error]. *)
let decode (f : t -> 'a) (j : t) : ('a, string) result =
  try Ok (f j) with Decode_error m -> Error m
