(* Result lines.  Values print with every digit ([%.17g]); integers print
   as integers.  The last stdout line of a run is the result object; the
   run context and the human-readable report go to earlier lines and to
   stderr. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let count name value = { name; value = float_of_int value; unit_ = "count" }

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let result ~correct ~attempted ~failed metrics =
  obj
    [
      ("correct", if correct then "true" else "false");
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        obj
          (List.map
             (fun x -> (x.name, obj [ ("value", num x.value); ("unit", str x.unit_) ]))
             metrics) );
    ]

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
