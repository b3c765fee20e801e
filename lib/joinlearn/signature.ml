type mask = int

type space = { left_arity : int; right_arity : int; pairs : (int * int) array }

let space ~left_arity ~right_arity =
  let dim = left_arity * right_arity in
  if dim > 62 then invalid_arg "Signature.space: more than 62 attribute pairs";
  let pairs =
    Array.init dim (fun k -> (k / right_arity, k mod right_arity))
  in
  { left_arity; right_arity; pairs }

let pairs sp = sp.pairs
let dimension sp = Array.length sp.pairs
let full sp = (1 lsl dimension sp) - 1

let index sp (i, j) =
  if i < 0 || i >= sp.left_arity || j < 0 || j >= sp.right_arity then
    invalid_arg "Signature.index: pair out of range";
  (i * sp.right_arity) + j

let of_predicate sp predicate =
  List.fold_left (fun m p -> m lor (1 lsl index sp p)) 0 predicate

let to_predicate sp mask =
  Array.to_list sp.pairs
  |> List.filteri (fun k _ -> mask land (1 lsl k) <> 0)

(* The mask kernel.  Values are compared as int codes — equal codes iff
   [Value.equal] values.  For one left row, [col.(c)] holds bit
   [i * right_arity] for every left attribute [i] with code [c]; the mask
   against a right row is then the OR over right attributes [j] of
   [col.(code j) lsl j], since bit [i * right_arity + j] is the index of
   pair [(i, j)] (see [space]).  One lookup per right attribute instead of
   one compare per pair. *)

let load sp col (l : int array) a =
  let la = sp.left_arity and ra = sp.right_arity in
  for i = 0 to la - 1 do
    let c = l.((a * la) + i) in
    col.(c) <- col.(c) lor (1 lsl (i * ra))
  done

let unload sp col (l : int array) a =
  let la = sp.left_arity in
  for i = 0 to la - 1 do
    col.(l.((a * la) + i)) <- 0
  done

let row_mask sp (col : int array) (r : int array) b =
  let ra = sp.right_arity in
  let ro = b * ra in
  let m = ref 0 in
  for j = 0 to ra - 1 do
    m := !m lor (col.(r.(ro + j)) lsl j)
  done;
  !m

let check_width sp side t =
  let arity = match side with `Left -> sp.left_arity | `Right -> sp.right_arity in
  if Array.length t < arity then
    invalid_arg "Signature: tuple narrower than the space"

(* The first [k] in [[k, upto)] with [Value.equal t.(k) v], else [none]. *)
let rec first_equal t v k upto none =
  if k >= upto then none
  else if Relational.Value.equal t.(k) v then k
  else first_equal t v (k + 1) upto none

(* One pair, no table: a left value's code is the position of its first
   equal among the left values, a right value's the position of its first
   equal there, or [left_arity] — a code no left value loads. *)
let signature sp rt st =
  check_width sp `Left rt;
  check_width sp `Right st;
  let la = sp.left_arity and ra = sp.right_arity in
  let l = Array.make la 0 and r = Array.make ra la in
  for i = 0 to la - 1 do
    l.(i) <- first_equal rt rt.(i) 0 i i
  done;
  for j = 0 to ra - 1 do
    r.(j) <- first_equal rt st.(j) 0 la la
  done;
  let col = Array.make (la + 1) 0 in
  load sp col l 0;
  row_mask sp col r 0

(* A batch interns every value of both sides once, densely. *)
module Values = Hashtbl.Make (Relational.Value)

let fold_pairs sp lt rt ~init f =
  let nl = Array.length lt and nr = Array.length rt in
  if nl = 0 || nr = 0 then init
  else begin
    let tbl = Values.create 64 in
    let encode side arity tuples =
      let out = Array.make (Array.length tuples * arity) 0 in
      Array.iteri
        (fun row t ->
          check_width sp side t;
          for a = 0 to arity - 1 do
            let v = t.(a) in
            out.((row * arity) + a) <-
              (match Values.find_opt tbl v with
              | Some c -> c
              | None ->
                  let c = Values.length tbl in
                  Values.add tbl v c;
                  c)
          done)
        tuples;
      out
    in
    let l = encode `Left sp.left_arity lt
    and r = encode `Right sp.right_arity rt in
    let col = Array.make (Values.length tbl) 0 in
    let acc = ref init in
    for a = nl - 1 downto 0 do
      load sp col l a;
      for b = nr - 1 downto 0 do
        acc := f a b (row_mask sp col r b) !acc
      done;
      unload sp col l a
    done;
    !acc
  end

let subset a b = a land lnot b = 0
let inter a b = a land b

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let mem mask k = mask land (1 lsl k) <> 0

let pp sp ppf mask =
  let items =
    to_predicate sp mask
    |> List.map (fun (i, j) -> Printf.sprintf "a%d=b%d" i j)
  in
  Format.fprintf ppf "{%s}" (String.concat ", " items)
