(* Lazily compiled transition tables: (state × port × invocation) → a cached
   row of successor/response pairs. One table per base object of the
   exploration engine; rows are compiled on first visit by running the
   interpreted [Type_spec.transition] once and interning the result.

   The table numbers the states it meets densely ([Intern.Numbering]): the
   root a caller hands in and every successor of a compiled row. A state is
   its number, a row is its index in [rows], and the hot path is one
   [Value.Imap] probe on ⟨state·ports + port, invocation cell id⟩ — the id
   pairs the engine's program table keys its rows on — so one row stands
   for every copy of an invocation, and nothing the caller stores is a
   pointer. Every response handed out is the canonical cell of its intern
   state, so physical equality downstream is structural equality. *)

module I = Value.Intern

type row = {
  alts : (Value.t * Value.t) list;
      (* canonical (maximally shared) values, in spec order *)
  next : int array;  (* per alternative, its successor's state number *)
  resps : I.cell array;  (* per alternative, its response *)
  n_alts : int;
  det : bool;  (* exactly one alternative *)
  pure_read : bool;  (* deterministic and leaves the state unchanged *)
}

type t = {
  spec : Type_spec.t;
  ist : I.state;
  ports : int;
  states : I.Numbering.t;
  index : Value.Imap.t;  (* ⟨s * ports + port, invocation cell id⟩ → row *)
  mutable rows : row array;
  mutable n_rows : int;  (* rows compiled so far (misses) *)
}

let create ?ist spec =
  let ist = match ist with Some s -> s | None -> I.create () in
  {
    spec;
    ist;
    ports = max 1 spec.Type_spec.ports;
    states = I.Numbering.create ();
    index = Value.Imap.create 8;
    rows = [||];
    n_rows = 0;
  }

let intern_state t = t.ist
let compiled_rows t = t.n_rows
let state t qc = I.Numbering.number t.states qc
let value t s = I.value (I.Numbering.cell t.states s)
let row t r = t.rows.(r)

let compile_row t s ~port ~inv =
  (* One interpreted step, then intern every successor/response bottom-up so
     the row hands out canonical representatives forever after. The declared
     [oblivious] flag is deliberately not trusted to share rows across ports:
     rows are lazy, so an honest per-port table costs only what is visited,
     and a lying declaration cannot corrupt results. *)
  let raw = t.spec.Type_spec.transition (value t s) ~port ~inv in
  let n = List.length raw in
  let next = Array.make n 0 in
  let resps = Array.make n (I.unit t.ist) in
  let alts =
    List.mapi
      (fun i (q', r) ->
        let qc' = I.intern t.ist q' and rc = I.intern t.ist r in
        next.(i) <- state t qc';
        resps.(i) <- rc;
        (I.value qc', I.value rc))
      raw
  in
  let det = n = 1 in
  { alts; next; resps; n_alts = n; det; pure_read = det && next.(0) = s }

let miss t s ~port ~inv =
  let row = compile_row t s ~port ~inv:(I.value inv) in
  let r = t.n_rows in
  if r = Array.length t.rows then begin
    let rows = Array.make (max 8 (2 * r)) row in
    Array.blit t.rows 0 rows 0 r;
    t.rows <- rows
  end;
  t.rows.(r) <- row;
  t.n_rows <- r + 1;
  Value.Imap.add t.index ((s * t.ports) + port) (I.id inv) r;
  r

let row_id t s ~port ~inv =
  let spec = t.spec in
  if port < 0 || port >= spec.Type_spec.ports then
    raise
      (Type_spec.Bad_step
         (Fmt.str "%s: port %d out of range [0,%d)" spec.Type_spec.name port
            spec.Type_spec.ports));
  if s < 0 || s >= I.Numbering.length t.states then
    invalid_arg "Step_table.row_id: not a state of this table";
  let r = Value.Imap.find t.index ((s * t.ports) + port) (I.id inv) in
  if r >= 0 then r else miss t s ~port ~inv

let alternatives t q ~port ~inv =
  (row t (row_id t (state t (I.intern t.ist q)) ~port ~inv:(I.intern t.ist inv)))
    .alts
