module Dv = Rt_lattice.Depval
module Df = Rt_lattice.Depfun

(* A hypothesis is either materialized ([pend = -1], [dep] is its own
   matrix) or a lazy child: [dep] is its parent's matrix, shared and
   read-only, and [pend = s * n + r] names the one message it adds,
   [d(s,r) ⊔ →] and [d(r,s) ⊔ ←]. Weight and hashes are exact in both
   forms; [force] turns a child into the first form on the first read
   of its cells. A pair has this one form throughout: [pend], the
   assumptions (ascending codes, which is ascending [(s, r)] order as
   [r < n]) and a message's candidates are all codes [s * n + r].

   [parent], [pair] and [bits] are the in-message provenance the cover
   merge relies on (see [merge_in]): a child of the message's parent
   [parent] by its candidate pair [pair] has [bits = [||]]; a merge
   result has [parent = -1] and [bits] holding its cover set, then its
   edit set; every other hypothesis has [parent = -1] and
   [bits = [||]]. *)
type t = {
  mutable dep : Df.t;
  mutable pend : int;
  mutable weight : int;
  mutable hash : int;
  mutable a_hash : int;  (* order-independent hash of the assumption set *)
  mutable assumptions : int list;  (* ascending codes *)
  mutable parent : int;
  pair : int;
  mutable bits : int array;
}

(* A structural hash of the matrix, maintained incrementally on every
   cell mutation so set-membership tests almost never fall back to the
   O(n²) matrix comparison. Each cell position gets a fixed mixing
   weight; the hash is the sum of [position_weight * value_code]. *)
let position_weight n a b = (((a * n) + b + 1) * 0x9E3779B1) land max_int

let value_code = function
  | Dv.Par -> 1
  | Dv.Fwd -> 2
  | Dv.Bwd -> 3
  | Dv.Bi -> 4
  | Dv.Fwd_maybe -> 5
  | Dv.Bwd_maybe -> 6
  | Dv.Bi_maybe -> 7

(* Flat per-size mixing-weight table: entry [a * n + b] is
   [position_weight n a b], zeroed on the diagonal so a whole-matrix sum
   over the flat cell array equals the off-diagonal-only definition above
   (the diagonal is pinned to [Par] anyway). The cache is domain-local:
   whole learner runs may execute on pool domains (e.g. the benchmark's
   bound sweep), and a shared [Hashtbl] would race; one tiny table per
   domain costs nothing and needs no lock. *)
let pw_cache_key : (int, int array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let position_weights n =
  let cache = Domain.DLS.get pw_cache_key in
  match Hashtbl.find_opt cache n with
  | Some a -> a
  | None ->
    let a =
      Array.init (n * n) (fun i ->
          if i mod (n + 1) = 0 then 0
          else ((i + 1) * 0x9E3779B1) land max_int)
    in
    Hashtbl.add cache n a;
    a

(* [value_code v = Depval.index v + 1], so a matrix byte codes straight
   into the hash. *)
let full_hash d =
  let cells = Df.cells d in
  let pw = position_weights (Df.size d) in
  let h = ref 0 in
  for i = 0 to Bytes.length cells - 1 do
    h := !h + (Array.unsafe_get pw i * (Char.code (Bytes.unsafe_get cells i) + 1))
  done;
  !h land max_int

(* Assumption sets are duplicate-free, so a commutative sum of per-pair
   mixes hashes the set independently of insertion order. A pair mixes
   by its sender and receiver, [c = s * n + r] decoded. *)
let pair_mix s r = (((s * 8191) + r + 1) * 0x9E3779B1) land max_int

let assumptions_hash n l =
  List.fold_left (fun acc c -> (acc + pair_mix (c / n) (c mod n)) land max_int)
    0 l

(* Cell [i]'s mixing weight: [position_weight n a b] for [i = a * n + b],
   [a <> b]. *)
let cell_weight i = ((i + 1) * 0x9E3779B1) land max_int

let plain dep ~weight ~hash ~a_hash assumptions =
  { dep; pend = -1; weight; hash; a_hash; assumptions;
    parent = -1; pair = 0; bits = [||] }

let bottom n =
  let dep = Df.create n in
  plain dep ~weight:0 ~hash:(full_hash dep) ~a_hash:0 []

let of_depfun d =
  let dep = Df.copy d in
  plain dep ~weight:(Df.weight dep) ~hash:(full_hash dep) ~a_hash:0 []

let join_ix = Dv.join_ix_tbl
let dist_ix = Dv.dist_ix_tbl
let fwd_ix = Dv.index Dv.Fwd
let bwd_ix = Dv.index Dv.Bwd

(* The cell a message's reverse half lands in: [r * n + s] for
   [i = s * n + r]. *)
let transpose n i = ((i mod n) * n) + (i / n)

(* Cell [i] := cell [i] ⊔ value index [v] on a hypothesis that owns its
   matrix, keeping the cached weight and hash exact ([update_cell] on
   byte indices). *)
let join_byte h i v =
  let c = Df.cells h.dep in
  let old = Char.code (Bytes.get c i) in
  let v' = Array.unsafe_get join_ix ((old * 7) + v) in
  if v' <> old then begin
    Bytes.set c i (Char.chr v');
    h.weight <- h.weight - dist_ix.(old) + dist_ix.(v');
    h.hash <- (h.hash + (cell_weight i * (v' - old))) land max_int
  end

(* Materialize a lazy child: copy the parent's matrix and apply the
   pending message. Weight and hashes already count it. *)
let force h =
  if h.pend >= 0 then begin
    let i = h.pend in
    h.dep <- Df.copy h.dep;
    h.pend <- -1;
    let c = Df.cells h.dep in
    let set i v =
      Bytes.set c i (Char.chr join_ix.((Char.code (Bytes.get c i) * 7) + v))
    in
    set i fwd_ix;
    set (transpose (Df.size h.dep) i) bwd_ix
  end

let depfun h = force h; h.dep

let weight h = h.weight

let assumptions h =
  let n = Df.size h.dep in
  List.map (fun c -> (c / n, c mod n)) h.assumptions

let rec mem (c : int) = function [] -> false | a :: tl -> a = c || mem c tl

(* An index out of range would alias another pair's code. *)
let assumed h s r =
  let n = Df.size h.dep in
  s >= 0 && s < n && r >= 0 && r < n && mem ((s * n) + r) h.assumptions

(* Mutate cell (a,b), keeping the cached weight and hash exact. *)
let update_cell h a b old v' =
  Df.set h.dep a b v';
  h.weight <- h.weight - Dv.distance old + Dv.distance v';
  let pw = position_weight (Df.size h.dep) a b in
  h.hash <- (h.hash + (pw * (value_code v' - value_code old))) land max_int

let join_cell h a b v =
  let old = Df.get h.dep a b in
  let v' = Dv.join old v in
  if not (Dv.equal v' old) then update_cell h a b old v'

(* Assumption lists are kept sorted so that hypotheses with identical
   matrices and identical assumption sets compare equal and can be
   unified mid-period. *)
let insert_sorted (c : int) l =
  let rec go = function
    | [] -> [ c ]
    | q :: rest as all -> if c <= q then c :: all else q :: go rest
  in
  go l

let generalize_message h ~sender ~receiver =
  if sender = receiver then invalid_arg "Hypothesis.generalize_message: sender = receiver";
  if assumed h sender receiver then None
  else begin
    force h;
    let n = Df.size h.dep in
    let c = (sender * n) + receiver in
    let h' =
      plain (Df.copy h.dep) ~weight:h.weight ~hash:h.hash
        ~a_hash:((h.a_hash + pair_mix sender receiver) land max_int)
        (insert_sorted c h.assumptions)
    in
    join_cell h' sender receiver Dv.Fwd;
    join_cell h' receiver sender Dv.Bwd;
    Some h'
  end

(* {2 Branching within one message}

   A message's candidates are the first [count] codes of [codes]; a
   child records the index of its code there as [pair]. *)

type message = {
  codes : int array;
  cw : int;  (* words of a cover set; the edit set's follow *)
  ew : int;
}

let wbits = Sys.int_size

let words k = (k + wbits - 1) / wbits

let message ~parents ~codes ~count =
  { codes; cw = words parents; ew = words count }

(* Refuse what no pair code [s * n + r] over [n] tasks can be. *)
let check_code fn n i =
  if i < 0 || i >= n * n then invalid_arg (fn ^ ": task index out of range");
  if i / n = i mod n then invalid_arg (fn ^ ": sender = receiver")

(* [generalize_message] in O(1): the child shares its parent's matrix,
   and its weight and hash are the parent's plus the deltas of the two
   cells the message joins. *)
let child h m ~parent ~pair =
  force h;
  let n = Df.size h.dep and i = m.codes.(pair) in
  check_code "Hypothesis.child" n i;
  if mem i h.assumptions then None
  else begin
    let c = Df.cells h.dep in
    let s = i / n and r = i mod n in
    let j = (r * n) + s in
    let oi = Char.code (Bytes.get c i) and oj = Char.code (Bytes.get c j) in
    let vi = join_ix.((oi * 7) + fwd_ix) and vj = join_ix.((oj * 7) + bwd_ix) in
    Some
      { dep = h.dep;
        pend = i;
        weight =
          h.weight + dist_ix.(vi) - dist_ix.(oi) + dist_ix.(vj) - dist_ix.(oj);
        hash =
          (h.hash + (cell_weight i * (vi - oi)) + (cell_weight j * (vj - oj)))
          land max_int;
        a_hash = (h.a_hash + pair_mix s r) land max_int;
        assumptions = insert_sorted i h.assumptions;
        parent;
        pair;
        bits = [||] }
  end

(* Bound 1 in closed form (DESIGN.md §20): with [h] the only parent,
   the children are [h ⊔ J({c})] for [c] in C', the pairs [h] has not
   assumed, and the bound merges them all. [h]'s own matrix takes every
   join, weight and hash kept by the same per-cell update as a merge;
   the assumptions become [A ∪ {c}] for a lone child and stay [A]
   otherwise. Every pair is checked against [A] as it was before the
   message, which no join changes until the loop ends. *)
let join_codes h codes count =
  force h;
  let n = Df.size h.dep in
  let admitted = ref 0 and first = ref 0 in
  for k = 0 to count - 1 do
    let i = codes.(k) in
    check_code "Hypothesis.join_codes" n i;
    if not (mem i h.assumptions) then begin
      if !admitted = 0 then first := i;
      incr admitted;
      join_byte h i fwd_ix;
      join_byte h (transpose n i) bwd_ix
    end
  done;
  if !admitted = 1 then begin
    h.assumptions <- insert_sorted !first h.assumptions;
    h.a_hash <- (h.a_hash + pair_mix (!first / n) (!first mod n)) land max_int
  end;
  !admitted

(* Weakening rewrites cells all over the matrix, so the weight and hash
   are recounted, in passes no longer than the one that weakened. *)
let weaken_violations_count h ~violated =
  force h;
  let n = Df.weaken_violations h.dep ~violated in
  if n > 0 then begin
    h.weight <- Df.weight h.dep;
    h.hash <- full_hash h.dep
  end;
  n

let weaken_violations h ~violated = ignore (weaken_violations_count h ~violated)

let clear_assumptions h =
  h.assumptions <- [];
  h.a_hash <- 0

(* Sorted assumption lists intersect in one pass; the result is [l1]
   itself when nothing is dropped. *)
let rec inter_sorted l1 l2 =
  match l1, l2 with
  | [], _ | _, [] -> []
  | (c1 : int) :: t1, c2 :: t2 ->
    if c1 = c2 then
      let t = inter_sorted t1 t2 in
      if t == t1 then l1 else c1 :: t
    else if c1 < c2 then inter_sorted t1 l2
    else inter_sorted l1 t2

(* Merged assumptions are the intersection: a pair only stays blocked if
   both parents used it. Union would starve later messages of candidates
   and kill the merged hypothesis, losing the soundness the heuristic
   promises; intersection can at worst re-join evidence for a pair, which
   is idempotent and only makes the result more general. *)
(* The single hottest operation of the bounded learner: at bound b it
   runs once per forced merge, which is nearly once per generated child.
   Joined cells, the Definition-8 weight and the structural hash are all
   produced in one pass over the flat cell arrays (the separate
   join/weight/hash passes of the naive version tripled the memory
   traffic); the resulting hash is bit-identical to [full_hash]. [lub]
   joins the two stored matrices as they are, pending messages of lazy
   children excluded. *)
let lub h1 h2 inter ~bits =
  let n = Df.size h1.dep in
  if Df.size h2.dep <> n then invalid_arg "Hypothesis.merge_lub: size mismatch";
  let dep = Df.create n in
  let c1 = Df.cells h1.dep and c2 = Df.cells h2.dep and c = Df.cells dep in
  let pw = position_weights n in
  let w = ref 0 and h = ref 0 in
  for i = 0 to (n * n) - 1 do
    let j =
      Array.unsafe_get join_ix
        (((Char.code (Bytes.unsafe_get c1 i)) * 7)
         + Char.code (Bytes.unsafe_get c2 i))
    in
    Bytes.unsafe_set c i (Char.unsafe_chr j);
    w := !w + Array.unsafe_get dist_ix j;
    h := !h + (Array.unsafe_get pw i * (j + 1))
  done;
  { dep; pend = -1; weight = !w; hash = !h land max_int;
    a_hash = assumptions_hash n inter; assumptions = inter;
    parent = -1; pair = 0; bits }

let merge_lub h1 h2 =
  force h1;
  force h2;
  lub h1 h2 (inter_sorted h1.assumptions h2.assumptions) ~bits:[||]

(* {2 Cover merges}

   Within one message every working-set member equals
   [⊔cov ⊔ J(E)]: the join of the message's parents it lies above
   (its cover set [cov]) and of the candidate pairs joined on top (its
   edit set [E], [J] joining [→] at [(s,r)] and [←] at [(r,s)] for each).
   A child is [p ⊔ J({k})]; as [⊔] is pointwise, a merge takes the union
   of both sets. Hence when [cov(b) ⊆ cov(a)], [a ⊔ b = a ⊔ J(E_b \ E_a)]:
   a few cell joins on [a] instead of a fresh t² matrix. *)

let has bits base k =
  bits.(base + (k / wbits)) land (1 lsl (k mod wbits)) <> 0

let set_bit bits base k =
  let w = base + (k / wbits) in
  bits.(w) <- bits.(w) lor (1 lsl (k mod wbits))

(* cov(b) ⊆ cov(a). *)
let covers m a b =
  if b.parent >= 0 then
    if a.parent >= 0 then a.parent = b.parent else has a.bits 0 b.parent
  else
    let mask w =
      if a.parent < 0 then a.bits.(w)
      else if w = a.parent / wbits then 1 lsl (a.parent mod wbits)
      else 0
    in
    let rec sub w = w >= m.cw || (b.bits.(w) land lnot (mask w) = 0 && sub (w + 1)) in
    sub 0

(* The bits of a child's singleton sets, or a merge result's own. *)
let bits_of m h =
  if h.parent < 0 then h.bits
  else begin
    let bits = Array.make (m.cw + m.ew) 0 in
    set_bit bits 0 h.parent;
    set_bit bits m.cw h.pair;
    bits
  end

let add_edit m h k =
  let i = m.codes.(k) in
  join_byte h i fwd_ix;
  join_byte h (transpose (Df.size h.dep) i) bwd_ix;
  set_bit h.bits m.cw k

(* [a := a ⊔ b] in place, given cov(b) ⊆ cov(a): join the edits of [b]
   that [a] lacks. [a] must have just left the working set: it is no
   parent, so nothing else reads its matrix. *)
let absorb m a b =
  force a;
  a.bits <- bits_of m a;
  a.parent <- -1;
  if b.parent >= 0 then begin
    if not (has a.bits m.cw b.pair) then add_edit m a b.pair
  end
  else
    for w = 0 to m.ew - 1 do
      let x = ref (b.bits.(m.cw + w) land lnot a.bits.(m.cw + w)) in
      let k = ref (w * wbits) in
      while !x <> 0 do
        if !x land 1 <> 0 then add_edit m a !k;
        x := !x lsr 1;
        incr k
      done
    done;
  let inter = inter_sorted a.assumptions b.assumptions in
  if inter != a.assumptions then begin
    a.assumptions <- inter;
    a.a_hash <- assumptions_hash (Df.size a.dep) inter
  end;
  a

(* Neither cover contains the other: one fused pass over both stored
   matrices, then the lazy children's pending messages on top. *)
let merge_full m a b =
  let ba = bits_of m a and bb = bits_of m b in
  let bits = Array.init (m.cw + m.ew) (fun w -> ba.(w) lor bb.(w)) in
  let h = lub a b (inter_sorted a.assumptions b.assumptions) ~bits in
  let pending i =
    if i >= 0 then begin
      join_byte h i fwd_ix;
      join_byte h (transpose (Df.size h.dep) i) bwd_ix
    end
  in
  pending a.pend;
  pending b.pend;
  h

let merge_in m a b =
  let ab = covers m a b and ba = covers m b a in
  (* On equal covers, grow the side that already owns a matrix. *)
  if ab && ((not ba) || Array.length a.bits > 0 || Array.length b.bits = 0)
  then absorb m a b
  else if ba then absorb m b a
  else merge_full m a b

let settle h =
  force h;
  h.parent <- -1;
  h.bits <- [||]

let equal h1 h2 = force h1; force h2; Df.equal h1.dep h2.dep

let compare h1 h2 = force h1; force h2; Df.compare h1.dep h2.dep

let hash h = h.hash

let a_hash h = h.a_hash

let compare_full h1 h2 =
  let c = Int.compare h1.hash h2.hash in
  if c <> 0 then c
  else
    let c = Int.compare h1.a_hash h2.a_hash in
    if c <> 0 then c
    else
      let c = compare h1 h2 in
      if c <> 0 then c
      else List.compare Int.compare h1.assumptions h2.assumptions

let leq h1 h2 = force h1; force h2; Df.leq h1.dep h2.dep

let pp ?names ppf h = Df.pp ?names ppf (depfun h)
