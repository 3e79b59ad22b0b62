(** HW — full-map directory scheme [8, 3].

    A three-state (invalid / read-shared / write-exclusive) invalidation
    protocol with a full presence-bit directory at each line's home node
    and write-back caches, under weak consistency (writes retire through
    write buffers; reads stall).

    Classification uses the Tullsen–Eggers criterion [34]: when a remote
    write invalidates a cached line, the invalidation is *false sharing*
    if the local processor had not used the written word since fetching
    the line; the next miss on that line is then a false-sharing miss
    (else a true-sharing miss). Invalidated frames keep their tag and
    carry the flag until refetched or evicted. *)

module Cache = Hscd_cache.Cache


module Kruskal_snir = Hscd_network.Kruskal_snir
module Traffic = Hscd_network.Traffic


module Config = Hscd_arch.Config
module Event = Hscd_arch.Event

let s_invalid = Cache.invalid_state (* 0 *)
let s_shared = 1
let s_modified = 2
let s_inv_tagged = 3  (** invalid for access, but tagged for classification *)

module Bitset = Hscd_util.Bitset

(* [sharers] is the cardinal of [presence], kept in step with it so that
   LimitLESS's overflow test, run before every access, is O(1) *)
type dir_entry = { presence : Bitset.t; mutable sharers : int; mutable dirty : bool }

type t = {
  cfg : Config.t;
  mem : Memstate.t;
  caches : Cache.t array;
  directory : dir_entry array;  (** per memory line *)
  ever_fetched : Bytes.t array;
  evictors : (Cache.line -> unit) array;  (** per processor: its [on_evict] *)
  net : Kruskal_snir.t;
  traffic : Traffic.t;
  st : Scheme.stats;
  res : Scheme.access_result;
}

let name = "HW"

let add_sharer dir p =
  if not (Bitset.mem dir.presence p) then begin
    Bitset.add dir.presence p;
    dir.sharers <- dir.sharers + 1
  end

let remove_sharer dir p =
  if Bitset.mem dir.presence p then begin
    Bitset.remove dir.presence p;
    dir.sharers <- dir.sharers - 1
  end

(* Write back a dirty victim of [proc]'s cache: directory learns, memory
   traffic counted. (Values are kept current in [mem] eagerly, so only
   bookkeeping here.) *)
let evict ~line_words ~directory ~st ~traffic ~proc (victim : Cache.line) =
  if victim.tag >= 0 && victim.tag < Array.length directory then begin
    let dir = directory.(victim.tag) in
    if victim.state = s_modified then begin
      st.Scheme.writebacks <- st.Scheme.writebacks + 1;
      Traffic.add_write traffic line_words;
      dir.dirty <- false
    end;
    if victim.state = s_modified || victim.state = s_shared then begin
      remove_sharer dir proc;
      Traffic.add_control traffic 1 (* replacement hint *)
    end
  end

let create cfg ~memory_words ~network ~traffic =
  let memory_lines = Hscd_util.Ints.ceil_div (max 1 memory_words) cfg.Config.line_words in
  let directory =
    Array.init memory_lines (fun _ ->
        { presence = Bitset.create cfg.processors; sharers = 0; dirty = false })
  in
  let st = Scheme.fresh_stats () in
  {
    cfg;
    mem = Memstate.create ~words:memory_words;
    caches = Array.init cfg.processors (fun _ -> Cache.create cfg);
    directory;
    ever_fetched = Array.init cfg.processors (fun _ -> Bytes.make memory_lines '\000');
    evictors =
      Array.init cfg.processors (fun proc ->
          evict ~line_words:cfg.line_words ~directory ~st ~traffic ~proc);
    net = network;
    traffic;
    st;
    res = Scheme.fresh_result ();
  }

let mem_line t addr = addr / t.cfg.line_words
let off_of t addr = addr land (t.cfg.line_words - 1)

let mark_fetched t ~proc line = Bytes.set t.ever_fetched.(proc) line '\001'
let was_fetched t ~proc line = Bytes.get t.ever_fetched.(proc) line = '\001'

(* Move every sharer of [dir]'s line (at [addr]) but [except] that holds it
   in M — or in S too, unless [owner_only] — to state [next]; a copy
   invalidated this way gets Tullsen-Eggers flags for word [off]. Walks the
   presence words directly: O(sharers + P/62), no closure. Returns the
   number of sharers visited. *)
let demote t dir ~except ~addr ~off ~owner_only ~next =
  let count = ref 0 in
  for k = 0 to Bitset.word_count dir.presence - 1 do
    let bits = ref (Bitset.word dir.presence k) in
    while !bits <> 0 do
      let p = (k * Bitset.bits_per_word) + Bitset.lowest_bit !bits in
      bits := !bits land (!bits - 1);
      if p <> except then begin
        incr count;
        match Cache.probe t.caches.(p) addr with
        | Some line when line.state = s_modified || (line.state = s_shared && not owner_only) ->
          line.state <- next;
          if next = s_inv_tagged then begin
            line.inv_false_sharing <- not line.touched.(off);
            line.inv_pending <- true
          end
        | Some _ | None -> ()
      end
    done
  done;
  !count

(* Invalidate every remote sharer of [line_no] because [writer] writes word
   [off], leaving [writer] the only sharer. *)
let invalidate_sharers t ~writer ~line_no ~off =
  let dir = t.directory.(line_no) in
  let count =
    demote t dir ~except:writer ~addr:(line_no * t.cfg.line_words) ~off ~owner_only:false
      ~next:s_inv_tagged
  in
  if count > 0 then begin
    t.st.invalidations_sent <- t.st.invalidations_sent + count;
    (* invalidation requests + acknowledgements *)
    Traffic.add_coherence t.traffic (2 * count)
  end;
  Bitset.clear dir.presence;
  Bitset.add dir.presence writer;
  dir.sharers <- 1

(* Directory side of a miss by [proc] that ends in [state]: recalls a dirty
   remote copy (extra hops), then invalidates the sharers (write) or joins
   them (read). Returns the miss latency. *)
let acquire t ~proc ~addr ~state =
  let line_no = mem_line t addr in
  let dir = t.directory.(line_no) in
  let base_latency = Scheme.transfer_latency t.cfg t.net ~words:t.cfg.line_words in
  let latency =
    if dir.dirty && not (Bitset.mem dir.presence proc) then begin
      (* 3-hop transaction: home forwards to the owner, owner supplies the
         line and writes it back *)
      t.st.dirty_recalls <- t.st.dirty_recalls + 1;
      (* the owner downgrades (read) or invalidates (write) *)
      ignore
        (demote t dir ~except:proc ~addr:(line_no * t.cfg.line_words) ~off:(off_of t addr)
           ~owner_only:true ~next:(if state = s_modified then s_inv_tagged else s_shared));
      dir.dirty <- false;
      Traffic.add_write t.traffic t.cfg.line_words (* owner's writeback *);
      Traffic.add_coherence t.traffic 2 (* forward + ack *);
      base_latency + (t.cfg.miss_base_cycles / 2) + Kruskal_snir.round_trip_excess t.net
    end
    else base_latency
  in
  if state = s_modified then begin
    invalidate_sharers t ~writer:proc ~line_no ~off:(off_of t addr);
    dir.dirty <- true
  end
  else add_sharer dir proc;
  latency

(* Cache side of a miss: allocate [proc]'s frame (its victim written back
   through the directory) and fill it from memory in [state]. *)
let fill t ~proc ~addr ~state =
  let line_no = mem_line t addr in
  let line = Cache.allocate t.caches.(proc) ~on_evict:t.evictors.(proc) addr in
  let base = line_no * t.cfg.line_words in
  line.state <- state;
  for k = 0 to t.cfg.line_words - 1 do
    line.values.(k) <- Memstate.read t.mem (base + k);
    line.word_valid.(k) <- true;
    line.fetch_seq.(k) <- t.mem.seq;
    line.touched.(k) <- false
  done;
  line.touched.(off_of t addr) <- true;
  mark_fetched t ~proc line_no;
  Traffic.add_read t.traffic t.cfg.line_words;
  Traffic.add_control t.traffic Scheme.control_words;
  line

(* Miss classification before refetch. *)
let miss_class t ~proc ~addr =
  match Cache.probe t.caches.(proc) addr with
  | Some line when line.state = s_inv_tagged ->
    if line.inv_false_sharing then Scheme.False_sharing else Scheme.True_sharing
  | Some _ | None ->
    if was_fetched t ~proc (mem_line t addr) then Scheme.Replacement else Scheme.Cold

let read t ~proc ~addr ~array:(_ : int) ~mark:_ =
  match Cache.find t.caches.(proc) addr with
  | Some line when line.state = s_shared || line.state = s_modified ->
    line.touched.(off_of t addr) <- true;
    Scheme.set_result t.res ~latency:t.cfg.hit_cycles ~value:line.values.(off_of t addr)
      ~cls:Scheme.Hit
  | _ ->
    let cls = miss_class t ~proc ~addr in
    let latency = acquire t ~proc ~addr ~state:s_shared in
    let line = fill t ~proc ~addr ~state:s_shared in
    Scheme.set_result t.res ~latency ~value:line.values.(off_of t addr) ~cls

(* weak consistency retires stores in one cycle behind the write buffer;
   sequential consistency stalls for the coherence transaction *)
let retire t transaction_latency =
  match t.cfg.consistency with Config.Weak -> 1 | Config.Sequential -> transaction_latency

let write t ~proc ~addr ~array:(_ : int) ~value ~mark:_ =
  Memstate.write t.mem ~proc addr value;
  let off = off_of t addr in
  match Cache.find t.caches.(proc) addr with
  | Some line when line.state = s_modified ->
    line.values.(off) <- value;
    line.touched.(off) <- true;
    Scheme.set_result t.res ~latency:t.cfg.hit_cycles ~value ~cls:Scheme.Hit
  | Some line when line.state = s_shared ->
    (* upgrade: invalidate other sharers *)
    t.st.upgrades <- t.st.upgrades + 1;
    invalidate_sharers t ~writer:proc ~line_no:(mem_line t addr) ~off;
    t.directory.(mem_line t addr).dirty <- true;
    line.state <- s_modified;
    line.values.(off) <- value;
    line.touched.(off) <- true;
    Scheme.set_result t.res
      ~latency:(retire t (Scheme.transfer_latency t.cfg t.net ~words:1))
      ~value ~cls:Scheme.Hit
  | _ ->
    let cls = miss_class t ~proc ~addr in
    let fetch_latency = acquire t ~proc ~addr ~state:s_modified in
    let line = fill t ~proc ~addr ~state:s_modified in
    line.values.(off) <- value;
    Scheme.set_result t.res ~latency:(retire t fetch_latency) ~value ~cls

let epoch_boundary (_ : t) ~stalls = Array.fill stalls 0 (Array.length stalls) 0

let boundary_exchange (_ : t array) = ()

let stats t = t.st

let memory_image t = t.mem.Memstate.values

(* memory + caches + the full-map directory (presence vectors and dirty
   bits drive future invalidations and recalls) *)
let snapshot t =
  let b = Buffer.create 256 in
  Scheme.Snap.ints b t.mem.Memstate.values;
  Array.iter
    (fun e ->
      Bitset.iter (Scheme.Snap.int b) e.presence;
      Scheme.Snap.bool b e.dirty;
      Scheme.Snap.sep b)
    t.directory;
  Scheme.Snap.caches b t.caches;
  Buffer.contents b
