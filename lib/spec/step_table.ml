(* Lazily compiled transition tables: (interned state × port × invocation) →
   a cached row of interned successor/response pairs. One table per base
   object of the exploration engine; rows are compiled on first visit by
   running the interpreted [Type_spec.transition] once and interning the
   result, so the hot path is one array load on the dense state-cell id plus
   a physical scan over the few invocations live on that (port, state), and
   every successor state / response handed out is the canonical
   representative of its intern state — physical equality downstream is
   structural equality. *)

module I = Value.Intern

type row = {
  alts : (Value.t * Value.t) list;
      (* canonical (maximally shared) values, in spec order *)
  cells : I.cell array;  (* interleaved [|q'0; r0; q'1; r1; …|] *)
  packed : int array;  (* the same row as interned-cell ids *)
  n_alts : int;
  det : bool;  (* exactly one alternative *)
  pure_read : bool;  (* deterministic and leaves the state unchanged *)
}

(* Rows are keyed on the *physical* invocation value. The compiled engine
   hands in invocations straight off the program nodes its program table
   keeps (hence physically stable); [alternatives] hands in the canonical interned
   representative. Structurally equal but physically distinct invocations
   just compile duplicate rows — sound, since rows are a pure function of
   the structure, and rare enough not to matter. Distinct invocations per
   (object, port, state) are few, so a physical scan beats hashing. *)
type bucket = { mutable rows : (Value.t * row) list }

(* Shared sentinel for never-visited states: scanning its empty [rows] is a
   clean miss, and the miss path replaces it with a fresh bucket before
   mutating. It must never be mutated itself. *)
let no_bucket : bucket = { rows = [] }

type t = {
  spec : Type_spec.t;
  ist : I.state;
  tables : bucket array array;  (* per port, indexed by state cell id *)
  mutable compiled : int;  (* rows compiled so far (misses) *)
}

let create ?ist spec =
  let ist = match ist with Some s -> s | None -> I.create () in
  {
    spec;
    ist;
    tables = Array.make spec.Type_spec.ports [||];
    compiled = 0;
  }

let intern_state t = t.ist
let compiled_rows t = t.compiled

let compile_row t qc ~port ~inv =
  (* One interpreted step, then intern every successor/response bottom-up so
     the row hands out canonical representatives forever after. The declared
     [oblivious] flag is deliberately not trusted to share rows across ports:
     rows are lazy, so an honest per-port table costs only what is visited,
     and a lying declaration cannot corrupt results. *)
  let raw = t.spec.Type_spec.transition (I.value qc) ~port ~inv in
  let n = List.length raw in
  let cells = Array.make (2 * n) qc in
  let packed = Array.make (2 * n) 0 in
  let alts =
    List.mapi
      (fun i (q', r) ->
        let qc' = I.intern t.ist q' and rc = I.intern t.ist r in
        cells.(2 * i) <- qc';
        cells.((2 * i) + 1) <- rc;
        packed.(2 * i) <- I.id qc';
        packed.((2 * i) + 1) <- I.id rc;
        (I.value qc', I.value rc))
      raw
  in
  let det = n = 1 in
  {
    alts;
    cells;
    packed;
    n_alts = n;
    det;
    pure_read = det && cells.(0) == qc;
  }

(* Cell ids are dense (an intern state numbers cells from 0), so the
   per-port table is a plain array indexed by id, doubled on demand. *)
let grow t ~port id =
  let tbl = t.tables.(port) in
  let len = Array.length tbl in
  let tbl' = Array.make (max (id + 1) (max 64 (2 * len))) no_bucket in
  Array.blit tbl 0 tbl' 0 len;
  t.tables.(port) <- tbl';
  tbl'

let miss t tbl id b qc ~port ~inv =
  let row = compile_row t qc ~port ~inv in
  let b =
    if b == no_bucket then begin
      let nb = { rows = [] } in
      tbl.(id) <- nb;
      nb
    end
    else b
  in
  b.rows <- (inv, row) :: b.rows;
  t.compiled <- t.compiled + 1;
  row

let row_cells t qc ~port ~inv =
  let spec = t.spec in
  if port < 0 || port >= spec.Type_spec.ports then
    raise
      (Type_spec.Bad_step
         (Fmt.str "%s: port %d out of range [0,%d)" spec.Type_spec.name port
            spec.Type_spec.ports));
  let id = I.id qc in
  let tbl = t.tables.(port) in
  let tbl = if id < Array.length tbl then tbl else grow t ~port id in
  let b = Array.unsafe_get tbl id in
  let rec find = function
    | [] -> miss t tbl id b qc ~port ~inv
    | (i, row) :: rest -> if i == inv then row else find rest
  in
  find b.rows

let alternatives t q ~port ~inv =
  (row_cells t (I.intern t.ist q) ~port ~inv:(I.value (I.intern t.ist inv)))
    .alts
