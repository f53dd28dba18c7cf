module O = Oracles.Oracle

type labelled = {
  name : string;
  source : string;
  labels : O.bug_class list;
}

(* ------------------------------------------------------------------ *)
(* Variant scaffolding                                                  *)
(*                                                                      *)
(* Every template derives three orthogonal dimensions from its variant  *)
(* index:                                                               *)
(*   gated  — the buggy function only works after a prior unlock()      *)
(*            transaction set a state flag (sequence dependence);       *)
(*   nest   — 0..2 extra parameter-guarded conditional layers around    *)
(*            the bug (branch-nesting depth);                           *)
(*   flavor — template-specific variation of the bug pattern itself.    *)
(* ------------------------------------------------------------------ *)

let gated_of i = i mod 2 = 1
let nest_of i = i / 2 mod 3

let gate_state gated = if gated then "  uint256 unlocked;\n" else ""

let gate_fn gated =
  if gated then "  function unlock() public { unlocked = 1; }\n" else ""

let gate_req gated = if gated then "    require(unlocked == 1);\n" else ""

(* Wrap [inner] (already indented at 4) in [nest] conditional layers on
   the uint256 parameter [x]. *)
let nest_wrap nest inner =
  match nest with
  | 0 -> inner
  | 1 -> "    if (x > 10) {\n" ^ inner ^ "    }\n"
  | _ -> "    if (x > 10) {\n      if (x < 100000) {\n" ^ inner ^ "      }\n    }\n"

let decoy i =
  (* wrap-safe: a - (a mod k) can never underflow *)
  Printf.sprintf
    "  function decoy%d(uint256 a) public returns (uint256) {\n\
    \    if (a %% %d == %d) {\n\
    \      return a - %d;\n\
    \    }\n\
    \    return a;\n\
    \  }\n"
    (i mod 3) (3 + (i mod 5)) (i mod 3) (i mod 3)

let contract name body = Printf.sprintf "contract %s {\n%s}\n" name body

(* ------------------------------------------------------------------ *)
(* Templates                                                            *)
(* ------------------------------------------------------------------ *)

(* BD: four block-dependency pattern families — modulo lottery on the
   timestamp, block-number epoch minting, deadline bypass, and blockhash
   randomness. *)
let mk_bd i =
  let gated = gated_of i and nest = nest_of i in
  let bug =
    match i mod 4 with
    | 0 ->
      Printf.sprintf
        "    if (block.timestamp %% %d == %d) {\n      msg.sender.transfer(pot);\n      pot = 0;\n    }\n"
        (5 + (i mod 4)) (i mod 3)
    | 1 ->
      Printf.sprintf
        "    if (block.number %% %d == %d) {\n      pot += %d;\n    }\n"
        (4 + (i mod 5)) (i mod 2) (10 + i)
    | 2 ->
      "    if (block.timestamp > deadline) {\n      owner = msg.sender;\n      msg.sender.transfer(pot);\n    }\n"
    | _ ->
      Printf.sprintf
        "    uint256 r = uint256(blockhash(block.number - 1)) %% %d;\n\
        \    if (r == x %% %d) {\n      msg.sender.transfer(pot / 2);\n      pot = pot / 2;\n    }\n"
        (10 + (i mod 7)) (10 + (i mod 7))
  in
  let body =
    Printf.sprintf
      "  address owner;\n  uint256 pot;\n  uint256 deadline;\n%s\n\
      \  constructor() public {\n    owner = msg.sender;\n    deadline = block.timestamp + %d days;\n  }\n\
      \  function fund() public payable {\n    pot += msg.value;\n  }\n%s\
      \  function claim(uint256 x) public {\n%s%s  }\n%s"
      (gate_state gated) (1 + (i mod 14)) (gate_fn gated)
      (gate_req gated)
      (nest_wrap nest bug)
      (decoy i)
  in
  { name = Printf.sprintf "BDv%02d" i; source = contract (Printf.sprintf "BDv%02d" i) body;
    labels = [ O.BD ] }

(* UD: delegatecall pattern families — plain forwarder, library-style
   dispatch, and a zero-check that does not actually protect anything. *)
let mk_ud i =
  let gated = gated_of i and nest = nest_of i in
  let bug =
    match i mod 3 with
    | 0 -> "    nonce += 1;\n    bool ok = target.delegatecall(data);\n"
    | 1 ->
      "    if (target != address(0)) {\n      bool ok = target.delegatecall(data);\n      nonce += 1;\n    }\n"
    | _ ->
      "    lastCaller = msg.sender;\n    bool ok = target.delegatecall(data);\n    require(ok);\n"
  in
  let body =
    Printf.sprintf
      "  uint256 nonce;\n  address lastCaller;\n%s\n%s\
      \  function run(address target, uint256 data, uint256 x) public {\n%s%s  }\n%s"
      (gate_state gated) (gate_fn gated) (gate_req gated)
      (nest_wrap nest bug)
      (decoy i)
  in
  { name = Printf.sprintf "UDv%02d" i; source = contract (Printf.sprintf "UDv%02d" i) body;
    labels = [ O.UD ] }

(* EF: value sinks with no way out — per-sender ledger bookkeeping, a
   crowd counter with an internal-transfer illusion, and a time-locked
   vault whose unlock only flips a flag but never pays. *)
let mk_ef i =
  let gated = gated_of i and nest = nest_of i in
  let flavor = i mod 3 in
  let extra =
    match flavor with
    | 0 -> ""
    | 1 ->
      "  function moveInternal(address to, uint256 x) public {\n\
      \    require(dep[msg.sender] >= x);\n\
      \    dep[msg.sender] -= x;\n    dep[to] += x;\n  }\n"
    | _ ->
      "  uint256 unlockedAt;\n\
      \  function unlockVault() public {\n\
      \    if (block.number > unlockedAt) {\n      total = total;\n    }\n  }\n"
  in
  let body =
    Printf.sprintf
      "  mapping(address => uint256) dep;\n  uint256 total;\n%s\n%s%s\
      \  function deposit() public payable {\n\
      \    dep[msg.sender] += msg.value;\n    total += msg.value;\n  }\n\
      \  function tally(uint256 x) public {\n%s%s  }\n%s"
      (gate_state gated) (gate_fn gated) extra (gate_req gated)
      (nest_wrap nest "      total = total + 0;\n")
      (decoy i)
  in
  { name = Printf.sprintf "EFv%02d" i; source = contract (Printf.sprintf "EFv%02d" i) body;
    labels = [ O.EF ] }

(* IO: seven arithmetic-truncation families — transfer underflow, chained
   multiplication, additive counter, subtractive counter, batch mint,
   loop-accumulated sum and admin-priced purchase. *)
let mk_io i =
  let gated = i mod 2 = 1 and nest = i / 2 mod 3 in
  let flavor = i mod 7 in
  let state, params, extra_fn, bug =
    match flavor with
    | 0 ->
      ( "  mapping(address => uint256) balances;\n", "uint256 x", "",
        "      balances[msg.sender] -= x;\n      balances[msg.sender] += 1;\n" )
    | 1 ->
      ( "  uint256 total;\n", "uint256 x", "",
        "      uint256 amount = x * 3;\n      total = x * amount;\n      total += 1;\n" )
    | 2 -> ("  uint256 total;\n", "uint256 x", "", "      total += x;\n")
    | 3 -> ("  uint256 total;\n", "uint256 x", "", "      total -= x;\n")
    | 4 ->
      ( "  uint256 supply;\n  mapping(address => uint256) balances;\n",
        "uint256 x, uint256 y", "",
        "      uint256 amount = x * y;\n      supply += amount;\n      balances[msg.sender] += amount;\n" )
    | 5 ->
      ( "  uint256 total;\n", "uint256 x, uint256 y", "",
        "      for (uint256 it = 0; it < x % 8; it += 1) {\n        total += y;\n      }\n" )
    | _ ->
      ( "  uint256 price;\n  uint256 owed;\n", "uint256 x",
        "  function setPrice(uint256 p) public {\n    price = p;\n  }\n",
        "      owed += x * price;\n" )
  in
  let body =
    Printf.sprintf
      "%s%s\n%s%s\
      \  function bump(%s) public {\n%s%s  }\n%s"
      state (gate_state gated) (gate_fn gated) extra_fn params (gate_req gated)
      (nest_wrap nest bug) (decoy i)
  in
  { name = Printf.sprintf "IOv%02d" i; source = contract (Printf.sprintf "IOv%02d" i) body;
    labels = [ O.IO ] }

(* RE: three reentrancy families — the classic DAO (whose re-entered
   subtraction also underflows: RE + IO), a withdraw-all that zeroes the
   balance only after the call, and a cross-function payout where the
   post-call bookkeeping lives in an internal helper. *)
let mk_re i =
  let nest = nest_of i in
  let flavor = i mod 3 in
  let body, labels =
    match flavor with
    | 0 ->
      ( Printf.sprintf
          "  mapping(address => uint256) credit;\n\
          \  function donate(address to) public payable {\n\
          \    credit[to] += msg.value;\n  }\n\
          \  function withdraw(uint256 x) public {\n%s  }\n%s"
          (nest_wrap nest
             "    if (credit[msg.sender] >= x) {\n\
             \      bool ok = msg.sender.call.value(x)();\n\
             \      credit[msg.sender] -= x;\n\
             \    }\n")
          (decoy i),
        [ O.RE; O.IO ] )
    | 1 ->
      ( Printf.sprintf
          "  mapping(address => uint256) credit;\n\
          \  function donate(address to) public payable {\n\
          \    credit[to] += msg.value;\n  }\n\
          \  function withdrawAll(uint256 x) public {\n%s  }\n%s"
          (nest_wrap nest
             "    uint256 amount = credit[msg.sender];\n\
             \    if (amount > 0) {\n\
             \      bool ok = msg.sender.call.value(amount)();\n\
             \      credit[msg.sender] = 0;\n\
             \    }\n")
          (decoy i),
        [ O.RE ] )
    | _ ->
      ( Printf.sprintf
          "  mapping(address => uint256) credit;\n  uint256 paidOut;\n\
          \  function donate(address to) public payable {\n\
          \    credit[to] += msg.value;\n  }\n\
          \  function book(uint256 amount) internal {\n\
          \    credit[msg.sender] = credit[msg.sender] - amount;\n\
          \    paidOut += amount;\n  }\n\
          \  function payout(uint256 x) public {\n%s  }\n%s"
          (nest_wrap nest
             "    if (credit[msg.sender] >= x) {\n\
             \      bool ok = msg.sender.call.value(x)();\n\
             \      book(x);\n\
             \    }\n")
          (decoy i),
        [ O.RE; O.IO ] )
  in
  { name = Printf.sprintf "REv%02d" i; source = contract (Printf.sprintf "REv%02d" i) body;
    labels }

(* US: selfdestruct families — heir parameter, msg.sender beneficiary,
   and a magic-number kill switch (strict constant guarding the kill,
   which is no protection at all). *)
let mk_us i =
  let gated = gated_of i and nest = nest_of i in
  let flavor = i mod 4 in
  let params =
    match flavor with
    | 0 -> "address heir, uint256 x"
    | 3 -> "uint256 code, uint256 x"
    | _ -> "uint256 x"
  in
  let bug =
    match flavor with
    | 0 -> "      selfdestruct(heir);\n"
    | 3 ->
      Printf.sprintf
        "      if (code == %d) {\n        selfdestruct(msg.sender);\n      }\n"
        (1000 + (37 * i))
    | _ -> "      selfdestruct(msg.sender);\n"
  in
  let body =
    Printf.sprintf
      "  uint256 counter;\n%s\n%s\
      \  function tick() public payable {\n    counter += 1;\n  }\n\
      \  function close(%s) public {\n%s%s  }\n%s"
      (gate_state gated) (gate_fn gated) params (gate_req gated)
      (nest_wrap nest bug)
      (decoy i)
  in
  { name = Printf.sprintf "USv%02d" i; source = contract (Printf.sprintf "USv%02d" i) body;
    labels = [ O.US ] }

(* SE + UE: strict-equality families — an if on this.balance, a require
   on it, and an equality against a tracked deposit counter; each variant
   also drops the result of an oversized send (UE). *)
let mk_se i =
  let nest = nest_of i in
  let ticket = 1 + (7 * i mod 50) in
  let se_bug =
    match i mod 3 with
    | 0 ->
      Printf.sprintf
        "    if (this.balance == %d finney) {\n      lastWinner = msg.sender;\n      round += 1;\n    }\n"
        (ticket * 10)
    | 1 ->
      Printf.sprintf
        "    if (this.balance != %d finney) {\n      round += 1;\n    } else {\n      lastWinner = msg.sender;\n    }\n"
        (ticket * 5)
    | _ ->
      "    if (this.balance == tracked) {\n      lastWinner = msg.sender;\n    }\n    tracked += msg.value;\n"
  in
  let body =
    Printf.sprintf
      "  address lastWinner;\n  uint256 round;\n  uint256 tracked;\n\
      \  function play(uint256 x) public payable {\n\
      \    require(msg.value == %d finney);\n%s\
      \    bool sent = msg.sender.send(%d ether);\n  }\n%s"
      ticket
      (nest_wrap nest se_bug)
      (2 + (i mod 3))
      (decoy i)
  in
  { name = Printf.sprintf "SEv%02d" i; source = contract (Printf.sprintf "SEv%02d" i) body;
    labels = [ O.SE; O.UE ] }

(* TO: tx.origin authorization. *)
let mk_to i =
  let body =
    Printf.sprintf
      "  address owner;\n  uint256 funds;\n\
      \  constructor() public {\n    owner = msg.sender;\n  }\n\
      \  function deposit() public payable {\n    funds += msg.value;\n  }\n\
      \  function sweep() public {\n\
      \    require(tx.origin == owner);\n\
      \    msg.sender.transfer(this.balance);\n  }\n%s"
      (decoy i)
  in
  { name = Printf.sprintf "TOv%02d" i; source = contract (Printf.sprintf "TOv%02d" i) body;
    labels = [ O.TO ] }

(* UE: dropped call results — a fixed oversized send, a gas-forwarding
   raw call, and a send inside a loop (the batch-payout footgun). *)
let mk_ue i =
  let gated = gated_of i and nest = nest_of i in
  let call =
    match i mod 3 with
    | 0 -> "    bool ok = msg.sender.send(2 ether);\n"
    | 1 -> "    bool ok = msg.sender.call.value(3 ether)();\n"
    | _ ->
      "    for (uint256 it = 0; it < x % 3 + 1; it += 1) {\n\
      \      bool ok = msg.sender.send(1 ether);\n    }\n"
  in
  let body =
    Printf.sprintf
      "  uint256 paid;\n%s\n%s\
      \  function payout(uint256 x) public {\n%s%s  }\n%s"
      (gate_state gated) (gate_fn gated) (gate_req gated)
      (nest_wrap nest ("      paid += 1;\n" ^ call))
      (decoy i)
  in
  { name = Printf.sprintf "UEv%02d" i; source = contract (Printf.sprintf "UEv%02d" i) body;
    labels = [ O.UE ] }

(* ------------------------------------------------------------------ *)
(* Safe controls: the guarded/checked twins of the patterns above.      *)
(* ------------------------------------------------------------------ *)

let safe_controls =
  [
    { name = "SafeVault";
      source =
        contract "SafeVault"
          "  address owner;\n\
          \  constructor() public {\n    owner = msg.sender;\n  }\n\
          \  function deposit() public payable {\n  }\n\
          \  function withdrawAll() public {\n\
          \    require(msg.sender == owner);\n\
          \    msg.sender.transfer(this.balance);\n  }\n";
      labels = [] };
    { name = "SafeDestroy";
      source =
        contract "SafeDestroy"
          "  address owner;\n\
          \  constructor() public {\n    owner = msg.sender;\n  }\n\
          \  function close() public {\n\
          \    require(msg.sender == owner);\n\
          \    selfdestruct(owner);\n  }\n";
      labels = [] };
    { name = "SafeMathToken";
      source =
        contract "SafeMathToken"
          "  mapping(address => uint256) balances;\n\
          \  constructor() public {\n    balances[msg.sender] = 1000000;\n  }\n\
          \  function transfer(address to, uint256 v) public {\n\
          \    require(balances[msg.sender] >= v);\n\
          \    require(balances[to] + v >= balances[to]);\n\
          \    balances[msg.sender] -= v;\n    balances[to] += v;\n  }\n";
      labels = [] };
    { name = "CheckedSend";
      source =
        contract "CheckedSend"
          "  mapping(address => uint256) owed;\n\
          \  function deposit() public payable {\n\
          \    owed[msg.sender] += msg.value;\n  }\n\
          \  function claim() public {\n\
          \    uint256 amount = owed[msg.sender];\n\
          \    owed[msg.sender] = 0;\n\
          \    require(amount > 0);\n\
          \    msg.sender.transfer(amount);\n  }\n";
      labels = [] };
    { name = "GuardedProxy";
      source =
        contract "GuardedProxy"
          "  address owner;\n\
          \  uint256 nonce;\n\
          \  constructor() public {\n    owner = msg.sender;\n  }\n\
          \  function run(address target, uint256 data) public {\n\
          \    require(msg.sender == owner);\n\
          \    nonce += 1;\n\
          \    bool ok = target.delegatecall(data);\n\
          \    require(ok);\n  }\n";
      labels = [] };
    { name = "PullPayment";
      source =
        contract "PullPayment"
          "  mapping(address => uint256) credit;\n\
          \  function donate(address to) public payable {\n\
          \    credit[to] += msg.value;\n  }\n\
          \  function withdraw() public {\n\
          \    uint256 amount = credit[msg.sender];\n\
          \    credit[msg.sender] = 0;\n\
          \    if (amount > 0) {\n      msg.sender.transfer(amount);\n    }\n  }\n";
      labels = [] };
  ]

(* Per-class variant counts chosen so the label totals match Table III's
   positives: BD 20, UD 17, EF 22, IO 49+16(RE)=65, RE 16, US 23,
   SE 19, TO 2, UE 12+19(SE)=31. *)
let suite =
  List.init 20 mk_bd
  @ List.init 17 mk_ud
  @ List.init 22 mk_ef
  @ List.init 54 mk_io
  @ List.init 16 mk_re
  @ List.init 23 mk_us
  @ List.init 19 mk_se
  @ List.init 2 mk_to
  @ List.init 12 mk_ue
  @ safe_controls

let positives = List.filter (fun l -> l.labels <> []) suite

let by_class cls = List.filter (fun l -> List.mem cls l.labels) suite

let label_count cls =
  List.fold_left
    (fun acc l -> acc + List.length (List.filter (( = ) cls) l.labels))
    0 suite

let compile l = Minisol.Contract.compile l.source

let write_to_dir dir =
  Util.Fileio.mkdirs dir;
  List.iter
    (fun l ->
      Util.Fileio.write_atomic (Filename.concat dir (l.name ^ ".sol")) l.source)
    suite;
  Util.Fileio.write_atomic (Filename.concat dir "LABELS.txt")
    (String.concat ""
       (List.map
          (fun l ->
            Printf.sprintf "%s: %s\n" l.name
              (String.concat ","
                 (List.map Oracles.Oracle.class_to_string l.labels)))
          suite))
