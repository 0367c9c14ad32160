"""Fixed deterministic subword vocabulary and word-piece splitting.

The vocabulary is built in-process from a seed wordlist plus byte-fallback
entries, padded with derived prefix/suffix pieces to exactly VOCAB_SIZE
entries. No files are read and no downloads happen, so token ids are stable
across runs and platforms.
"""

from __future__ import annotations

import hashlib
import string
from functools import lru_cache

VOCAB_SIZE = 8192
_MAX_PIECE_LEN = 12

# Seed wordlist: high-frequency English plus the finance/report vocabulary
# the corpus schema is aimed at. Order matters (ids are positional).
_SEED_WORDS = """
the of and to in a is was for that on as with by at from it an be are this
which or has had have were not but its also their they them he she we you
his her our your i all any each more most other some such no nor only own
same so than too very can will just should now during before after above
below up down out off over under again further then once here there when process
where why how what who whom whose if because until while about against
between into through total net gross value values amount amounts number
numbers year years month months day days date dates period periods quarter
quarters annual annually fiscal interim end ending ended begin beginning
million thousand billion percent percentage basis point points dollar
dollars euro euros pound pounds currency cash revenue revenues income
expense expenses cost costs profit profits loss losses gain gains margin
margins asset assets liability liabilities equity share shares stock stocks
dividend dividends interest tax taxes taxation earnings per diluted basic
operating operation operations investment investments financing activities
activity balance sheet statement statements report reports reporting
company companies group subsidiary subsidiaries segment segments business
businesses market markets sales sale purchase purchases inventory
inventories receivable receivables payable payables debt debts loan loans
credit credits capital reserve reserves surplus deficit depreciation
amortization impairment goodwill intangible tangible property plant
equipment lease leases rental fee fees license licenses spectrum charge
charges provision provisions accrual accruals deferred current noncurrent
long short term benefit benefits pension plan plans obligation obligations
actuarial comprehensive accumulated retained outstanding issued authorized
granted grant vested exercise exercisable option options warrant warrants
award awards compensation salary salaries wage wages bonus employee
employees director directors officer officers executive committee board
member members management audit auditor change changes increase increases
increased decrease decreases decreased growth decline rise rose fall fell
higher lower high low average mean median difference sum ratio rate rates
proportion respectively compared comparison prior previous next following
respective related relating respect according accordance note notes table
tables item items line lines column columns row rows page pages section
sections part parts consist consists consisted consisting comprise
comprises comprised including included includes include excluded excludes
exclude primarily mainly due result results resulting resulted reflect
reflects reflected represent represents represented recorded recognize
recognized recognition measure measured measurement fair carrying book
recoverable residual estimate estimates estimated useful life lives risk
risks exposure hedging hedge derivative derivatives instrument instruments
contract contracts agreement agreements arrangement arrangements
transaction transactions settlement settled maturity mature matured
redemption redeemed conversion converted convertible principal nominal
effective actual projected expected future past historical significant
material approximately roughly nearly almost less greater least maximum
minimum within without per annum january february march april may june july
august september october november december monday tuesday wednesday
thursday friday saturday sunday first second third fourth fifth sixth
seventh eighth ninth tenth one two three four five six seven eight nine ten
eleven twelve twenty thirty forty fifty sixty seventy eighty ninety hundred
zero half quarterly weighted unweighted adjusted unadjusted consolidated
unconsolidated audited unaudited restated presented presentation disclosed
disclosure disclosures required requirement requirements regulation
regulations standard standards policy policies method methods approach
segment geographic region regions country countries domestic foreign
international overseas china america europe asia africa australia canada
kingdom united states state federal local government authority authorities
bank banks banking insurance insurer reinsurance fund funds trust portfolio
position positions holding holdings stake ownership controlling
noncontrolling minority parent entity entities associate associates joint
venture ventures partnership partner partners customer customers client
clients supplier suppliers vendor vendors product products service services
goods software hardware technology research development innovation brand
brands franchise network networks infrastructure facility facilities store
stores office offices land building buildings machinery vehicle vehicles
freehold leasehold improvement improvements construction progress work
contract backlog order orders shipment shipments delivery deliveries volume
volumes unit units ton tons tonne tonnes barrel barrels litre litres gallon
gallons kilometre mile acre hectare square metre meter feet foot inch
employee headcount full time equivalent temporary permanent seasonal
allowance allowances doubtful uncollectible write written down downs
recovery recoveries proceeds repayment repayments borrowing borrowings
overdraft facility undrawn committed uncommitted covenant covenants default
defaults breach waiver collateral pledge pledged secured unsecured senior
subordinated guaranteed guarantee guarantees indemnity litigation lawsuit
claim claims contingency contingencies commitment commitments remaining
performance satisfied unsatisfied variable fixed floating benchmark
reference swap swaps forward forwards futures spot strike notional
settlement gross margin overhead administrative selling general marketing
advertising distribution logistics freight shipping handling utilities
insurance maintenance repair repairs professional consulting legal
accounting travel entertainment training recruitment severance
restructuring integration acquisition acquisitions disposal disposals
divestiture merger mergers combination goodwill consideration contingent
earnout milestone closing completion announcement announced effective date
record ex dividend payment paid payable declared declaration outstanding
what when where which how many much does did was were will would list
listed show shown shows indicate indicates indicated calculate calculated
computation computed derive derived between from versus against among
"""

_SUFFIX_PIECES = [
    "s", "es", "ed", "ing", "ly", "er", "ers", "est", "ion", "ions",
    "tion", "tions", "ation", "ment", "ments", "ness", "ity", "ities",
    "able", "ible", "al", "ial", "ous", "ive", "ize", "ized", "ise",
    "ised", "ful", "less", "ish", "ism", "ist", "ists", "man", "men",
    "ward", "wise", "age", "ance", "ence", "ant", "ent", "ary", "ery",
    "ory", "ure", "ture",
]


def build_vocab() -> list[str]:
    """Return the fixed VOCAB_SIZE-entry token list."""
    entries: list[str] = []
    seen: set[str] = set()

    def add(tok: str):
        if tok not in seen:
            seen.add(tok)
            entries.append(tok)

    # Byte fallback: one entry per possible UTF-8 byte.
    for b in range(256):
        add(f"<0x{b:02X}>")
    # Single characters, both word-initial and continuation forms.
    for ch in string.ascii_lowercase + string.digits:
        add(ch)
        add("##" + ch)
    for ch in string.punctuation:
        add(ch)
    words = _SEED_WORDS.split()
    for w in words:
        add(w)
    for sfx in _SUFFIX_PIECES:
        add("##" + sfx)
    # Pad deterministically with derived pieces until the table is full.
    for n in (2, 3, 4, 5):
        for w in words:
            if len(entries) >= VOCAB_SIZE:
                break
            if len(w) > n:
                add(w[:n])
                add("##" + w[-n:])
    filler = 0
    while len(entries) < VOCAB_SIZE:
        add(f"<unused{filler}>")
        filler += 1
    return entries[:VOCAB_SIZE]


_TOKEN_ID = {t: i for i, t in enumerate(build_vocab())}


@lru_cache(maxsize=65536)
def split_word(word: str) -> tuple[tuple[str, int, int], ...]:
    """Split a lowercased alphabetic word into (piece, start, end) triples.

    Greedy longest match; continuation pieces carry the ## prefix in
    their token text but spans index the original word. Characters with
    no piece fall back to their UTF-8 bytes (all byte tokens exist). Kept
    per word: the greedy search is the costliest step of tokenizing, and
    corpora repeat words.
    """
    if word in _TOKEN_ID:
        return ((word, 0, len(word)),)
    out: list[tuple[str, int, int]] = []
    pos = 0
    n = len(word)
    while pos < n:
        best = None
        limit = min(_MAX_PIECE_LEN, n - pos)
        for ln in range(limit, 0, -1):
            sub = word[pos:pos + ln]
            cand = sub if pos == 0 else "##" + sub
            if cand in _TOKEN_ID:
                best = (cand, pos, pos + ln)
                break
        if best is None:
            for byte in word[pos].encode("utf-8"):
                out.append((f"<0x{byte:02X}>", pos, pos + 1))
            pos += 1
        else:
            out.append(best)
            pos = best[2]
    return tuple(out)


@lru_cache(maxsize=65536)
def token_slot(text: str) -> int:
    """The embedding-table slot of a token text: its vocabulary id, or a
    blake2b hash of it into the table for a text outside the vocabulary."""
    tid = _TOKEN_ID.get(text)
    if tid is not None:
        return tid
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % VOCAB_SIZE


def pretokenize(text: str) -> list[tuple[str, int, int]]:
    """Split raw text into lowercased word/number/symbol units with char spans.

    Digit runs stay whole (so quantities like 731 remain single tokens),
    letter runs become word units, every other non-space character is its
    own unit.
    """
    units: list[tuple[str, int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            units.append((text[i:j].lower(), i, j))
            i = j
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            units.append((text[i:j], i, j))
            i = j
        else:
            units.append((ch.lower(), i, i + 1))
            i += 1
    return units


def tokenize_text(text: str) -> list[tuple[str, int, int]]:
    """Full tokenization of a source string: (token_text, start, end) triples.

    Deterministic: lowercase, whitespace+punctuation pre-split, then greedy
    word-piece fallback for out-of-vocabulary words. Number runs are atomic.
    """
    out: list[tuple[str, int, int]] = []
    for unit, start, end in pretokenize(text):
        if unit.isalpha() and unit not in _TOKEN_ID:
            for piece, s, e in split_word(unit):
                out.append((piece, start + s, start + e))
        else:
            out.append((unit, start, end))
    return out
