"""Committed answer digests: one sha256 per function and magnitude.

Every answer is exact, so none should change.  A change that alters one on
purpose says why in CHANGES.md and updates its constant in the same commit.
Each row is the repr of an answer with every int written in hex (``str``
refuses ints past 4,300 digits), one row per line; a word function's row is
the type name of the DomainError it raises, where it raises one.
"""

import hashlib
from random import Random

import pytest

from fibpal import (
    DomainError,
    PalCoord,
    chain_interval,
    coord_from_pal,
    end_count,
    expand_leaves,
    fib,
    floor_phi,
    is_factor,
    kernel,
    letter_at,
    new_pal_at,
    occurrence_count,
    occurrence_count_trace,
    pal_end_pos,
    pal_from_coord,
    pal_span,
    pals_of_length,
    prefix,
    singular_end_pos,
    split_cell,
    tail_sum,
)
from fibpal.fibword import fib_floor_index


def _seeded(k: int) -> list[int]:
    rng = Random(k)
    return [rng.randrange(10**k, 10**(k + 1)) for _ in range(6)]


def _words() -> list[str]:
    """Seeded factors of length 1 .. 1,000, each with a one-letter mutant, and
    the palindromes of a seeded length, built by pal_from_coord."""
    rng = Random(1)
    text = prefix(30000)
    out = []
    for _ in range(200):
        length = rng.randrange(1, 1001)
        start = rng.randrange(len(text) - length)
        w = text[start:start + length]
        k = rng.randrange(length)
        out += [w, w[:k] + "ab"[w[k] == "a"] + w[k + 1:]]
        out += [pal_from_coord(c) for c in pals_of_length(rng.randrange(1, 1001))]
    return out


def _fib_edges() -> list[int]:
    """n = fib(k) + d, |d| <= 3, for k in 60 .. 120, k = 31 + 19 j + {0, 1, 2}
    over a spread of j, and k within 3 of fibword.FIB_TABLE_MAX (where the
    counts leave the Fibonacci table)."""
    ks = set(range(60, 121)) | set(range(4997, 5004))
    ks |= {31 + 19 * j + d for j in (3, 4, 5, 10, 50, 100, 200, 261) for d in range(3)}
    return [fib(k) + d for k in sorted(ks) for d in range(-3, 4)]


def _peel_edges() -> list[int]:
    """n = fib(k) + d >= 1, |d| <= 3, for k = 19 j + {1, 2, 3}: the blocks near
    m = 19 j + 2, where the number of 19-digit Zeckendorf chunks that a count
    peels down to place 0 changes, for j = 0 .. 12 and a spread of larger j up
    to k = 4,981, below fibword.FIB_TABLE_MAX."""
    ks = {19 * j + e for j in [*range(13), 20, 37, 64, 100, 151, 200, 262] for e in (1, 2, 3)}
    return [fib(k) + d for k in sorted(ks) for d in range(-3, 4) if fib(k) + d >= 1]


def _table_edges() -> list[int]:
    """n = fib(k) + d >= 1, |d| <= 3, for k = 19 j + {1, 2, 3}, j = 262 .. 265:
    the last blocks whose top chunk is at a place up to 4,997, inside
    fibword.FIB_TABLE_MAX, and the first whose top chunks, at places 5,016 and
    5,035, are built from a pair moved down past it."""
    ks = [19 * j + e for j in range(262, 266) for e in (1, 2, 3)]
    return [fib(k) + d for k in ks for d in range(-3, 4) if fib(k) + d >= 1]


def _wide_edges() -> list[int]:
    """n = fib(k) + d >= 1, |d| <= 3, and three seeded n per block, for k = 19 j +
    {1, 2, 3}: the blocks near m = 19 j + 2, where the index j of a count's top
    19-digit chunk place changes parity, for j = 3 .. 8 (m = 78 is the first block
    whose top place is 76, the fourth), a spread of j, and j = 262 .. 266 across
    fibword.FIB_TABLE_MAX; and n = fib(s + 40) - 2 - x in block s + 39, whose
    digits from place s on make one 38-digit pattern a, with x at both ends of a's
    range, H_s(a) and H_s(a + 1) - 1, H_s(a) = fib(s-1) a + fib(s-2) floor_phi(a + 1),
    for s = 57, 95, 4,997 (the last place 19 j with j odd inside the table) and
    5,035 (the first past it), at the first and last four of the fib(38) patterns,
    every 632,459th between them, and fib(j) - 1, fib(j), fib(j) + 1 for j < 38,
    where a / phi is nearest an integer."""
    rng = Random(38)
    ks = [19 * j + e for j in [*range(3, 9), 20, 21, 100, 101, *range(262, 267)] for e in (1, 2, 3)]
    out = [fib(k) + d for k in ks for d in range(-3, 4) if fib(k) + d >= 1]
    out += [rng.randint(fib(k) - 1, fib(k + 1) - 2) for k in ks for _ in range(3)]
    top = fib(38)
    patterns = sorted({*range(4), *range(0, top, 632459), *range(top - 4, top),
                       *(fib(j) + d for j in range(38) for d in (-1, 0, 1) if 0 <= fib(j) + d < top)})
    for s in (57, 95, 4997, 5035):
        f1, f2, end = fib(s - 1), fib(s - 2), fib(s + 40) - 2

        def h(a):
            return f1 * a + f2 * floor_phi(a + 1)
        out += [end - x for a in patterns for x in (h(a), h(a + 1) - 1)]
    return out


def _kernel_edges() -> list[tuple[int, int]]:
    """(m, p) for the kernel indices m = 4,995 .. 5,010, across
    fibword.FIB_TABLE_MAX, and m = 20,000, far past it, each with p = 1, 2 and
    three seeded p up to 1e1000: the chain queries read fib(m) and fib(m+1)
    from the table on one side of the edge and from past it on the other."""
    ps = [1, 2, *_seeded(18)[:2], _seeded(1000)[0]]
    return [(m, p) for m in [*range(4995, 5011), 20000] for p in ps]


def _correction_edges(places=(19, 38, 57, 76)) -> list[int]:
    """n = fib(s + 21) - 2 - x in block s + 20, whose top 19-digit chunk is at
    place s, for s in places, with x at both ends of pattern a's range,
    H_s(a) and H_s(a + 1) - 1, H_s(a) = fib(s-1) a + fib(s-2) floor_phi(a + 1):
    the edges where the chunk's estimate of a is corrected, for the first four
    and last four of the fib(19) patterns and every 97th between them."""
    top = fib(19)
    patterns = sorted({*range(4), *range(0, top, 97), *range(top - 4, top)})
    out = []
    for s in places:
        def h(a):
            return fib(s - 1) * a + fib(s - 2) * floor_phi(a + 1)
        out += [fib(s + 21) - 2 - x for a in patterns for x in (h(a), h(a + 1) - 1)]
    return out


# "small" is every n < 3,000; "1eK" is six seeded n in [10**K, 10**(K + 1)), three at 1e10000;
# "fib-edges", "peel-edges" and "table-edges" are n next to the Fibonacci numbers
# where the counting walks change course, "correction-edges" the n where a chunk's
# estimate is corrected, "wide-edges" the n where a count's top place changes parity and
# where the digits of a 38-digit pattern end, "odd-top-edges" the correction edges at the odd
# top places 95, 4,997 and 5,035 (indices 5, 263 and 265); "kernel-edges" holds (m, p) pairs, the chain queries'
# kernel index and occurrence; "words" is the word magnitude, the one the word functions take
MAGNITUDES = {"small": range(1, 3000), **{f"1e{k}": _seeded(k) for k in (6, 18, 100, 1000, 4000)},
              "1e10000": _seeded(10000)[:3],
              "fib-edges": _fib_edges(), "peel-edges": _peel_edges(), "table-edges": _table_edges(),
              "correction-edges": _correction_edges(), "odd-top-edges": _correction_edges((95, 4997, 5035)),
              "wide-edges": _wide_edges(),
              "kernel-edges": _kernel_edges(), "words": _words()}


def _kernel_and_p(n) -> tuple[int, int]:
    """(m, p) of a chain query: a kernel-edges pair as it is, else m = n % 12 - 1 and p = n."""
    return n if isinstance(n, tuple) else (n % 12 - 1, n)


def _coord(n) -> tuple[PalCoord, int]:
    m, p = _kernel_and_p(n)
    return PalCoord(m, p % fib(m + 1) + 1), p


def _answer_or_error(function):
    """The function's answer, or the type name of the DomainError it raises."""
    def answer(w):
        try:
            return function(w)
        except DomainError as exc:  # NotAFactorError is one
            return type(exc).__name__
    return answer


# function name -> the answer it gives for input n
FUNCTIONS = {
    "floor_phi": floor_phi,
    "letter_at": letter_at,
    "singular_end_pos": lambda n: singular_end_pos(*_kernel_and_p(n)),
    "chain_interval": lambda n: chain_interval(*_kernel_and_p(n)),
    "pal_end_pos": lambda n: pal_end_pos(*_coord(n)),
    "pal_span": lambda n: pal_span(*_coord(n)),
    "new_pal_at": new_pal_at,
    "pals_of_length": pals_of_length,
    "split_cell": lambda n: split_cell(n % 12 + 1, n),
    "fib_floor_index": fib_floor_index,
    "end_count": end_count,
    "occurrence_count": occurrence_count,
    "tail_sum": tail_sum,
    "occurrence_count_trace.tail": lambda n: occurrence_count_trace(n)[1].get("tail"),  # None in the base table
    # at the seeded magnitudes only
    "expand_leaves": lambda n: expand_leaves(n % 10 - 1, n),
    # word functions, at the "words" magnitude only
    "kernel": _answer_or_error(kernel),
    "is_factor": _answer_or_error(is_factor),
    "coord_from_pal": _answer_or_error(coord_from_pal),
}

DIGESTS = {
    ("floor_phi", "small"): "ee2ab7308f05fe979379a6512e3c80e5da30c33725b0eb38935b535105e8ee9c",
    ("floor_phi", "1e6"): "618410bc6fc067b83a678d88d72323c6b8dc47f334f07c3d7bd4dc3486703c1b",
    ("floor_phi", "1e18"): "0fc598a4c519f16ae01c2e02ef021da0c9d96f03c047b3a79f0bd566608445a1",
    ("floor_phi", "1e100"): "cb7c5223b8104785ec35689b90f4ad0862cbefe7d38ea18cf945dcc3d3310921",
    ("floor_phi", "1e1000"): "c80175c2f96fcc59f6de687d8f92766c7c35d306d65323b02aa7664c346baac0",
    ("floor_phi", "1e4000"): "7e26fe26cbcf924de0b62acf560b88d4e6b5a18a7f60c3a6e2c2759a9b037848",
    ("letter_at", "small"): "c0592386f4adfbadfbe75f8689629c549856db73cd93ae59356cae5183c89e1c",
    ("letter_at", "1e6"): "dcb4ce1a9a2f9e659623da86209bc4ab98326e010ccec9ecf27ebc87e0b7678f",
    ("letter_at", "1e18"): "1e594f9a54d16225056d006c29cd2afa96f54ef766669d6c586b0a35b0040a60",
    ("letter_at", "1e100"): "6ecd51cd8d697c56cddf04d136c2cffb7371f158a981bd8f4137b401622c61f4",
    ("letter_at", "1e1000"): "75818b59c6d6df66ff7cd1712c59c77d603dff1573cd5ef8defc518839236085",
    ("letter_at", "1e4000"): "9d2a6dc6c46c2067633f50bea63e99fb3ba4237b9e2e5cb4acf01fc4b57fc212",
    ("singular_end_pos", "small"): "768fd182edebe50808ca8ad2f7dcf2d0d78b6c44719856eeebff50c8e6e460c4",
    ("singular_end_pos", "1e6"): "dd7dc0e6080687efb0c3d1accc9ea513c52a982c8b2fd643fc692b2a1170ff4b",
    ("singular_end_pos", "1e18"): "4f43776982bea92ff2856d2c04f439920e0e82beda37d38c4d5e63dee806a4b0",
    ("singular_end_pos", "1e100"): "e8f6d1eb6096ddf7ef0642081ac12f05be18eb9b978604d07225fe5b1ab21d1e",
    ("singular_end_pos", "1e1000"): "505430422c71149e90ab0fbe7f638cb61edcf0ab04751559c10eeabcc8fb67c5",
    ("singular_end_pos", "1e4000"): "4911cef04592560357c26870d80e1f6e00dbc45342cab8fded10007f4fea2867",
    ("singular_end_pos", "kernel-edges"): "5d8bb61a02f94ce12af6f3ebbe78c3fffedb081f666ee810c279f897930619be",
    ("chain_interval", "small"): "65683612c56b9309e5ae761ac545f12bbb35733874bfb1df1070a859601a690c",
    ("chain_interval", "1e6"): "a73adf0a1ef64e4712f7f5161557c46cddd6713a786b8a1a3ef0a4fe96fc821e",
    ("chain_interval", "1e18"): "39df9718db3df9130fd65fe9b8fcd0650d5bbc3abb858ef5a92ecda274216ae4",
    ("chain_interval", "1e100"): "63e547524ed9846ee4ff6a584d021b0e17950de3773e5bbaa16a9ebd639f74fb",
    ("chain_interval", "1e1000"): "e49121808a724da31a08ab5448d238277d542ec764ba81219ee76b698a3ced63",
    ("chain_interval", "1e4000"): "6112c64a51c5bd657edc15a4219e214848cd41d2612be82c1d191fcba7214019",
    ("chain_interval", "kernel-edges"): "1e4caf6f9bede7ccf854c548eb098c8333af37f80b05c239e24d63309d4b65f1",
    ("pal_span", "small"): "302f62faa2525a8a2e901e1bc6eb75c9c9af0afdd4998a0d8b2d49a0de36afdc",
    ("pal_span", "1e6"): "03e759154d38e78dda2a959ff2496673c71473eecddd7b9439c69541a608d1dd",
    ("pal_span", "1e18"): "5a75133d3ee79b0866e7440ea2f027c6014cee859b806b9317e444c4897b6b13",
    ("pal_span", "1e100"): "3d649d17db080641aba6ff51db1be8060093b6afe659e791de537caeccdf590b",
    ("pal_span", "1e1000"): "0205936031f66e81c00b75c057b783efc607eb1fe3d47a2c3c5f2bb0b0b4bfa4",
    ("pal_span", "1e4000"): "c72fa4e03f3ac7ef4abbe900cd44e0becc00606809adfd559b0dc2289b154d93",
    ("pal_span", "kernel-edges"): "d9966a9056162498e5f98aea4c3798e52580e1a22dee66f95bd9e1442b7bd92d",
    ("pal_end_pos", "small"): "b5f0d9410ca8c900ee224d69392376a4e583faf90a4166eaced27208d009ed4a",
    ("pal_end_pos", "1e6"): "6fab9d48a60d0f675fc5c83091bfd6264ee4c4db13e41640a7ccfec99f1dddb3",
    ("pal_end_pos", "1e18"): "706dc1ff7c73583b2d0ee35e78e4a5eb8140ed07834993ef6d4b43889521f1fc",
    ("pal_end_pos", "1e100"): "2dc55f070dfc214106b943154d851f0bb493eee03bed8bd7b8c28d15efc25149",
    ("pal_end_pos", "1e1000"): "2f124dbfca306f193ce4974f8c0fc197c027a46d64601a15bdcbd83618a161db",
    ("pal_end_pos", "1e4000"): "2c6794883b1b41ca717804c71c62383963779eeca6656b655c4ec4f92d2a9a8f",
    ("pal_end_pos", "kernel-edges"): "9f102c939274baeee21602041a602ec2e14459381111019d5067c95663d45c40",
    ("new_pal_at", "small"): "e70ad965be3c8230377519bb7ef055dd3257862bb86d3e8d6a6282e84939886a",
    ("new_pal_at", "1e6"): "f26f28b5c55380d4ca2f7e0926e024a69cc799d8138851895bf01a1aa801e5db",
    ("new_pal_at", "1e18"): "1a35d464804465889a2099cc792665eef5d149f8a780614f00e384d63f0511c7",
    ("new_pal_at", "1e100"): "8c40319e1cb7fcc8031eb278c7c47f56f67a147ca1ad09cdaaefe192c38e51bc",
    ("new_pal_at", "1e1000"): "dc7a92bc14224be90ac373f9d7f9ca0e6e669947aca8d461ce486c4fff743ce9",
    ("new_pal_at", "1e4000"): "9f2eef0285ee7b44fcac90da79a33bb25cd6dbdf81b2aa37626183cbd1454c28",
    ("pals_of_length", "small"): "080524056639a4a65439ca5a2a0f83bf6f596ac6e41b83fc4d82d9e84c7ce702",
    ("pals_of_length", "1e6"): "bafa9178b5d7ea8510018d65f39a423adba575c8e66b655f9e735127f130a38f",
    ("pals_of_length", "1e18"): "82be67778951078200ba7833919ab801d128c6868799dec1fd61572f406e9c9d",
    ("pals_of_length", "1e100"): "47f0ca55afa8435be5267a7a0a9cf61aecf0647a59485e2d9fdf1a6c0c9c1204",
    ("pals_of_length", "1e1000"): "2c92f2b733b17f74930f1751286628cf7a6593c459456a8f2499b302dcd6c0be",
    ("pals_of_length", "1e4000"): "b3dcc8b64d72275f50fa02e785985cdde578685451de3e1f8d024c69d748d234",
    ("split_cell", "small"): "e7516edf7d742dbd56ad84f7948ccf643cf872299cc2adaf3410cc3d2fd752a2",
    ("split_cell", "1e6"): "71c8751c880d442900c500a541a6275a33a0aa90b1b8be5d961806f2f1e9de70",
    ("split_cell", "1e18"): "42d87f3f2643651374e878a53ec169d47c07f4247fd025818aaa981d8dae7026",
    ("split_cell", "1e100"): "1b0d714218beaf21a24ae165aa0f38da2aaef9c2352a356dee7d6f80dd31f114",
    ("split_cell", "1e1000"): "eda105fab1a61d1734a84691aa0b5ca459fb9dbca1cd29ec40a0c1d83316e6fb",
    ("split_cell", "1e4000"): "078fbf0b1c97c10b5c8d74dbf75ef1c0fdaece815287dcb2359ee0351d399b00",
    ("fib_floor_index", "small"): "cb983926e9ba0fb1df08df22482ba3a2f81677189eaaecaf72de3174eb7e9726",
    ("fib_floor_index", "1e6"): "ef3e7be2e2b109ebec1cbec5795ec0cb89079a55373ed4184b8eb2660fb6ef0b",
    ("fib_floor_index", "1e18"): "ae30c4eb1aeeb02fbe116403f1364f1dcf6075d66755afbb3a7f92b69d6c1945",
    ("fib_floor_index", "1e100"): "a605f137351193751e677919939b26afe6b26cc443265b05bafe68b62d393f94",
    ("fib_floor_index", "1e1000"): "0b41a815cfa7f0653acf2732947b9646cb3e4bfa94171d28266c5b9a733e22cd",
    ("fib_floor_index", "1e4000"): "24767497bbd7068491f0471ad2dd2060f7e5fb82b67b3f994d263ce154e64729",
    ("end_count", "small"): "ed08e5244960631387819b7dca8089c67f6500872f2e44ee03840ebad544c906",
    ("end_count", "1e6"): "1f2ba86abf6b2a186757c7e9c63e2bfbbe17aeecf67626f1c06236b3b704832c",
    ("end_count", "1e18"): "83cbe6b1b7493a4a886ad4bb861282f5d9fa67ff31cae4bd89b5a71685b5a5de",
    ("end_count", "1e100"): "8e08b6e15128ed407ef1d446ab94ef7a5930a487bbc822026d5f59c28cb8d4de",
    ("end_count", "1e1000"): "19ef84de9efe12e23a0d751181bb2fb776be5b475db598e3777a0161599ad85e",
    ("end_count", "1e4000"): "508654fcc52d188c33909047d9b224142d06e87872a79844f3253ad99201bbe0",
    ("end_count", "1e10000"): "e5479dec60e4b0163363621cc850f437f3ccc477328d3c21bca3c6d99ea0215c",
    ("end_count", "fib-edges"): "047ebc2f63cbab0bafd2c8ab734067b8af8f77c82a9971fb71e8875787acba38",
    ("end_count", "peel-edges"): "3eaa8fa03d2db100d6ce5a2fd0872dcdf29e92921a32e080e41e10585ac5c8b5",
    ("end_count", "correction-edges"): "ddbae838a0f46112ffe552867ba63e36a8d857acdf3062e4749e512641c5d7f8",
    ("end_count", "odd-top-edges"): "e3eace058957ed4f92940b7ba0f0bd50d95e51b49526b68bc3dfe03eb175b3c9",
    ("end_count", "table-edges"): "6a471b9b3e3612665ef447d8f9df626794e52f336d8cbc4c5210a9a94bc2ddc1",
    ("end_count", "wide-edges"): "246773202de2e47584ebfb05536ec1ead7f525277a9088df85ca17fc9ef0eaca",
    ("occurrence_count", "small"): "08c8948b1b0904a0a3c77b38c559bac2a7cfa77a45db5eaecbfdb289e582f40c",
    ("occurrence_count", "1e6"): "7cba3a432879f1fb3fc9088c982692b2492cff8c1805648a6b88a04879a1119f",
    ("occurrence_count", "1e18"): "68e2dcb73208edd87aee3bf49ac8311e984eaf5efcb9d5265f9ac7f1935a13c8",
    ("occurrence_count", "1e100"): "81cec5637a51883d47199ceff03ff6422f008f9b6bf53b6bc8cb54b6f75fce68",
    ("occurrence_count", "1e1000"): "2dbfb5f3de957bbe369411672ca21659bf212071b1459a45fab359504e27d713",
    ("occurrence_count", "1e4000"): "56c96f52e4b849ebe52698c040d5663ed0751ab085022efe73f959faad78a42b",
    ("occurrence_count", "1e10000"): "c28ef9e081c8dbd9c394448b37218cd1c57a1676d6b7459a52946a26d65d5e82",
    ("occurrence_count", "fib-edges"): "84612f6f3cb23d2fd4ad38ebd3d2366568c9f225eb2fa97c83aecff30707eadd",
    ("occurrence_count", "peel-edges"): "bca471bd0ddfb4152e377ae153565e463fc5bd9ab17fe7d815114a02f553ae7f",
    ("occurrence_count", "correction-edges"): "4d185938b58c46ea2f176904fc0dc82e7800c938b62afa6f360dd517c42ecae7",
    ("occurrence_count", "odd-top-edges"): "6a0f3c6fc89725fcb9536c626dadc5d8586975a41ba44033024e2c6f17b8d39f",
    ("occurrence_count", "table-edges"): "747c24aac85ff3f494b306497a7a0f242fdb7b99dcf00940fc8d71c3479952f8",
    ("occurrence_count", "wide-edges"): "6a3e81daaa438e3069fe8a69723e80c6b04ce9bee00836f0ffd7d80d8fee1185",
    ("tail_sum", "small"): "59b1401e6920430c23a2d3becdb07349e58688078ed81daf2aa74af6ea565de5",
    ("tail_sum", "1e6"): "1f8465dad55c6718db5fc3e3df6f9916fa8d8b1c85afcdeec3295b6e2ca09db5",
    ("tail_sum", "1e18"): "f359daa973a450eaafe1db90dcc64f3c538cd5466ebc705a7f55dd4374f267bf",
    ("tail_sum", "1e100"): "212848cc216cd225c32e72d4fdfd888c5143b4ef3f283767278dfba33e888036",
    ("tail_sum", "1e1000"): "2479c1e7b21353bd813b7e5cbdf19df82512ddadb287e3a8ef2896caefc854ae",
    ("tail_sum", "1e4000"): "b0a3a91c0a5037f4570e7f2729276753e14e02db9f4eab5d5da8ca50938cec97",
    ("tail_sum", "1e10000"): "b26bd945d5fb864cdad4246cf53e2fad6bf89400256712abfd739e54d4b193d7",
    ("tail_sum", "fib-edges"): "ea5749e6cf9730f1dbcecd4a4869882361c164718a03c2ba4ec0c5eb2a06a95d",
    ("tail_sum", "peel-edges"): "de7de597ec063bb5a0b481ca8f8d7b30885ec4a6453d7832c23977ccfcc95ea0",
    ("tail_sum", "correction-edges"): "b0130c54bd1a9cccea85656c3b62b1a3a830d1756e2df61d34e1568bd094e7c6",
    ("tail_sum", "odd-top-edges"): "945d2794738cdc98d09fbc863f0aa80814608943437da1282bb23e5d4f68f84b",
    ("tail_sum", "table-edges"): "20c40009bce870a6e77c20b7f66219021bbc0e170439f48dcd844e0496aac1ff",
    ("tail_sum", "wide-edges"): "7c9de48b1a7b5fe85afa9b924110d5ee64ed8c8309fb86a030a17b45a7c8d7af",
    ("occurrence_count_trace.tail", "small"): "c21e9d67e872b3087adc6a59a0c6ec2fbd1cc273cb47235a4542e5cff474288c",
    ("occurrence_count_trace.tail", "1e6"): "1f8465dad55c6718db5fc3e3df6f9916fa8d8b1c85afcdeec3295b6e2ca09db5",
    ("occurrence_count_trace.tail", "1e18"): "f359daa973a450eaafe1db90dcc64f3c538cd5466ebc705a7f55dd4374f267bf",
    ("occurrence_count_trace.tail", "1e100"): "212848cc216cd225c32e72d4fdfd888c5143b4ef3f283767278dfba33e888036",
    ("occurrence_count_trace.tail", "1e1000"): "2479c1e7b21353bd813b7e5cbdf19df82512ddadb287e3a8ef2896caefc854ae",
    ("occurrence_count_trace.tail", "1e4000"): "b0a3a91c0a5037f4570e7f2729276753e14e02db9f4eab5d5da8ca50938cec97",
    ("occurrence_count_trace.tail", "fib-edges"): "ea5749e6cf9730f1dbcecd4a4869882361c164718a03c2ba4ec0c5eb2a06a95d",
    ("occurrence_count_trace.tail", "table-edges"): "20c40009bce870a6e77c20b7f66219021bbc0e170439f48dcd844e0496aac1ff",
    ("expand_leaves", "1e6"): "f386b44a5af2544a9b8cd5a5f100b61071b433e7dc3e7cac4cfa7763b9f71fa2",
    ("expand_leaves", "1e18"): "031f009026c468c0b43d99273aec657bab720ddde04b123b25c6dd41ebe4b519",
    ("expand_leaves", "1e100"): "408bb2c5af08e875953a1d3182a1901cf24251eec18fcf746ae0748cd8677d2a",
    ("expand_leaves", "1e1000"): "74f2420c5fa5fa1cb02df590aeb0c9e48c6f707948e24a791a48a320e362b601",
    ("expand_leaves", "1e4000"): "7e6ac0df8cc27afcd5d317a2ad73d86408722b15a1e27825da205a5f645c7020",
    ("kernel", "words"): "06f178bc254e24a0ac571a740f7f3831e5663a4939592a91db19a0feb5d7be5c",
    ("is_factor", "words"): "d5698c81eb61cdfca9edee0bece3376239750790362b7e16eb3dbc464bd71841",
    ("coord_from_pal", "words"): "425a43a763450272a1728172b0ec21ddea8889e19232fba53fab516857efc1d3",
}


def _row(answer) -> str:
    if isinstance(answer, int):
        return hex(answer)
    if isinstance(answer, tuple):
        return f"{type(answer).__name__}({', '.join(map(_row, answer))})"
    if isinstance(answer, list):
        return f"[{', '.join(map(_row, answer))}]"
    return repr(answer)


def digest(function: str, magnitude: str) -> str:
    answer = FUNCTIONS[function]
    rows = "\n".join(_row(answer(n)) for n in MAGNITUDES[magnitude])
    return hashlib.sha256(rows.encode()).hexdigest()


@pytest.mark.parametrize("function, magnitude", list(DIGESTS))
def test_answers_match_the_committed_digest(function, magnitude):
    assert digest(function, magnitude) == DIGESTS[function, magnitude], \
        f"{function} answers at magnitude {magnitude} changed"
