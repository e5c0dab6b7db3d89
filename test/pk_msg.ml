(* A phase-king message type of the tests' own, for the consensus tests
   that run without the renaming protocol. Its builders return static
   constants, as {!Repro_renaming.Byzantine_renaming.pk_msgs}' do, so a
   vote allocates nothing. *)

module PK = Repro_consensus.Phase_king

type t = Vote of bool | Propose of bool | King of bool

let bits _ = 4

let pp ppf = function
  | Vote b -> Format.fprintf ppf "vote(%b)" b
  | Propose b -> Format.fprintf ppf "propose(%b)" b
  | King b -> Format.fprintf ppf "king(%b)" b

let msgs =
  {
    PK.vote = (fun b -> if b then Vote true else Vote false);
    propose = (fun b -> if b then Propose true else Propose false);
    king = (fun b -> if b then King true else King false);
    kind =
      (function
      | Vote _ -> PK.Vote | Propose _ -> PK.Propose | King _ -> PK.King);
    bit = (function Vote b | Propose b | King b -> b);
  }
