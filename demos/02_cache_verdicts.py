"""Walk the TTL-based cache verdict rules case by case.

A resolver that answers from cache returns a TTL it has been counting
down; a fresh fetch returns whatever the authoritative server publishes.
Comparing the response TTL against the known authoritative TTL therefore
separates hits from misses — with two wrinkles shown below: Google's
one-second decrement on fresh answers, and the choice of reading
convention itself.

Run:  python3 demos/02_cache_verdicts.py
"""

from dnscdn.cache import Convention, TtlQuirk, classify

AUTHORITATIVE = 20


def show(title, cases, quirk=TtlQuirk.NONE, convention=Convention.EQUAL_IS_HIT):
    print(title)
    print(f"  {'response ttl':>12}  {'authoritative':>13}  verdict")
    for response_ttl in cases:
        verdict = classify(response_ttl, AUTHORITATIVE, quirk, convention)
        print(f"  {response_ttl:>12}  {AUTHORITATIVE:>13}  {verdict.value}")
    print()


def main():
    show(
        "Default reading (equal TTL = served from cache):",
        [20, 19, 5, 0, 25],
    )

    show(
        "Same numbers under the inverted reading (equal TTL = fresh fetch):",
        [20, 19, 5],
        convention=Convention.EQUAL_IS_MISS,
    )

    show(
        "Inverted reading with the Google decrement quirk — a fresh answer\n"
        "arrives at authoritative-1, so 19 is the miss signature, not 20:",
        [20, 19, 18],
        quirk=TtlQuirk.GOOGLE_DECREMENT,
        convention=Convention.EQUAL_IS_MISS,
    )

    print("A TTL above the authoritative value is unexplainable either way:")
    print(f"  classify(25, 20) -> {classify(25, AUTHORITATIVE).value}")


if __name__ == "__main__":
    main()
