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

(* How [escape] writes each byte: ['\000'] for a byte copied as is, else
   the character after the backslash, ['u'] for [\u00XX] *)
let escape_class =
  String.init 256 (fun i ->
      match Char.chr i with
      | '"' -> '"'
      | '\\' -> '\\'
      | '\n' -> 'n'
      | '\r' -> 'r'
      | '\t' -> 't'
      | c when Char.code c < 0x20 -> 'u'
      | _ -> '\000')

let hex_digits = "0123456789abcdef"

(* copy maximal runs of bytes that need no escaping in one blit — string
   payloads (verdict texts, sources, object files) are the bulk of every
   frame, and almost none of their bytes escape *)
let escape b s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    match String.unsafe_get escape_class (Char.code c) with
    | '\000' -> ()
    | e ->
      if i > !start then Buffer.add_substring b s !start (i - !start);
      Buffer.add_char b '\\';
      if e = 'u' then begin
        Buffer.add_string b "u00";
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 15]
      end
      else Buffer.add_char b e;
      start := i + 1
  done;
  if n > !start then Buffer.add_substring b s !start (n - !start)

(* the indentation of every line, cut from one string *)
let spaces = String.make 64 ' '

let rec indent b n =
  if n <= String.length spaces then Buffer.add_substring b spaces 0 n
  else begin
    Buffer.add_string b spaces;
    indent b (n - String.length spaces)
  end

let rec value_to_buffer b ind = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List (x :: xs) ->
    Buffer.add_char b '[';
    items_to_buffer b (ind + 2) x xs;
    Buffer.add_char b '\n';
    indent b ind;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj (kv :: kvs) ->
    Buffer.add_char b '{';
    members_to_buffer b (ind + 2) kv kvs;
    Buffer.add_char b '\n';
    indent b ind;
    Buffer.add_char b '}'

(* each element on its own line at [ind], separated by commas *)
and items_to_buffer b ind x xs =
  Buffer.add_char b '\n';
  indent b ind;
  value_to_buffer b ind x;
  match xs with
  | [] -> ()
  | x :: xs ->
    Buffer.add_char b ',';
    items_to_buffer b ind x xs

and members_to_buffer b ind (k, v) kvs =
  Buffer.add_char b '\n';
  indent b ind;
  Buffer.add_char b '"';
  escape b k;
  Buffer.add_string b "\": ";
  value_to_buffer b ind v;
  match kvs with
  | [] -> ()
  | kv :: kvs ->
    Buffer.add_char b ',';
    members_to_buffer b ind kv kvs

let to_buffer b (j : t) = value_to_buffer b 0 j

let to_string (j : t) : string =
  let b = Buffer.create 1024 in
  to_buffer b j;
  Buffer.contents b

(** The MD5 digest, in hex, of [prefix] followed by [j]'s text. *)
let digest ~prefix (j : t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b prefix;
  to_buffer b j;
  Digest.to_hex (Digest.string (Buffer.contents b))

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
    [Error]. The parser reads bytes in place: a string without escapes
    is one [String.sub], and the strings with escapes of one parse share
    one buffer, which no other parse sees. *)
let parse_result ?(max_size = default_max_size)
    ?(max_depth = default_max_depth) (s : string) : (t, parse_error) result =
  let n = String.length s in
  if n > max_size then Error (Too_large { size = n; limit = max_size })
  else begin
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Syntax { offset = !pos; msg })) in
  (* whether the next byte is [c]; false at the end of input *)
  let at c = !pos < n && String.unsafe_get s !pos = c in
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
  let expect c = if at c then incr pos else fail (Fmt.str "expected %C" c) in
  let literal word v =
    let k = String.length word in
    let rec matches i =
      i = k || (String.unsafe_get s (!pos + i) = word.[i] && matches (i + 1))
    in
    if !pos + k <= n && matches 0 then begin
      pos := !pos + k;
      v
    end
    else fail (Fmt.str "expected %s" word)
  in
  (* advance over bytes that are neither '"' nor '\\' — any other raw
     byte passes through *)
  let plain_run () =
    while
      !pos < n
      && match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
    do
      incr pos
    done
  in
  let scratch = Buffer.create 64 in
  let unescaped c =
    Buffer.add_char scratch c;
    incr pos
  in
  (* the escape at [pos], just after its backslash, into [scratch] *)
  let unescape () =
    if !pos >= n then fail "bad escape";
    match String.unsafe_get s !pos with
    | ('"' | '\\' | '/') as c -> unescaped c
    | 'n' -> unescaped '\n'
    | 'r' -> unescaped '\r'
    | 't' -> unescaped '\t'
    | 'b' -> unescaped '\b'
    | 'f' -> unescaped '\012'
    | 'u' ->
      incr pos;
      if !pos + 4 > n then fail "truncated \\u escape";
      let hex = String.sub s !pos 4 in
      pos := !pos + 4;
      (match int_of_string_opt ("0x" ^ hex) with
      | None -> fail "bad \\u escape"
      | Some code ->
        (* our own output only \u-escapes control characters; decode
           the Latin-1 subset and reject the rest *)
        if code < 0x100 then Buffer.add_char scratch (Char.chr code)
        else fail "non-latin1 \\u escape")
    | _ -> fail "bad escape"
  in
  (* the rest of a string with escapes, after its first backslash *)
  let rec escaped () =
    unescape ();
    let start = !pos in
    plain_run ();
    Buffer.add_substring scratch s start (!pos - start);
    if !pos >= n then fail "unterminated string"
    else if String.unsafe_get s !pos = '"' then incr pos
    else begin
      incr pos;
      escaped ()
    end
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    plain_run ();
    if !pos >= n then fail "unterminated string"
    else if String.unsafe_get s !pos = '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      Buffer.clear scratch;
      Buffer.add_substring scratch s start (!pos - start);
      incr pos;
      escaped ();
      Buffer.contents scratch
    end
  in
  let parse_int () =
    let start = !pos in
    if at '-' then incr pos;
    let first = !pos in
    while
      !pos < n
      && match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected number";
    if !pos = first then fail "bad number";
    (* accumulated negatively, so that [min_int] parses; a run past it,
       or past [max_int] without a sign, fails after the whole run *)
    let v = ref 0 in
    for i = first to !pos - 1 do
      let d = Char.code (String.unsafe_get s i) - Char.code '0' in
      if !v < (min_int + d) / 10 then fail "bad number";
      v := (!v * 10) - d
    done;
    if first > start then !v
    else if !v = min_int then fail "bad number"
    else - !v
  in
  let rec parse_value depth =
    skip_ws ();
    if depth > max_depth then
      raise (Parse_error (Too_deep { limit = max_depth }));
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (parse_string ())
    | '-' | '0' .. '9' -> Int (parse_int ())
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          if at ',' then begin
            incr pos;
            items (v :: acc)
          end
          else if at ']' then begin
            incr pos;
            List.rev (v :: acc)
          end
          else fail "expected ',' or ']'"
        in
        List (items [])
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
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
          if at ',' then begin
            incr pos;
            members ((k, v) :: acc)
          end
          else if at '}' then begin
            incr pos;
            List.rev ((k, v) :: acc)
          end
          else fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | c -> fail (Fmt.str "unexpected %C" c)
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
