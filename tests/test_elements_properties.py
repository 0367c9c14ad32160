"""Property test of extraction on generated text: every quantity and date
span points back at exactly the text it reports."""

from hypothesis import given, settings
from hypothesis import strategies as st

from docreason.elements import extract_dates, extract_quantities

# Fragments that the quantity and date patterns react to, mixed with
# arbitrary short text so that matches start and end in odd places.
FRAGMENTS = ["1", "7", "42", "2019", "1999", "2101", "1,234", "12,345,678", ".5", ",", ".",
             "%", " %", "$", "€", "£", "(", ")", "-", "+", " ", "  ", "\n", "FY", "FY ", "F",
             "March", "mar.", "Sept", "August", "may", "Dec.", "31", "0", "14 ", ", ",
             "14 August 2019", "August 14, 2019", "March 2018", "FY19", "FY 2020", " 2018 ",
             # letters that IGNORECASE matches to ASCII ones (ſ to s, the Kelvin sign
             # to k, İ to i), and digits that are, or only look like, \d
             "ſ", "\u212a", "İ", "３", "²", "ſeptember", "14 ſep. 2019"]
TEXTS = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)),
                 max_size=30).map("".join)
PROPERTY = settings(max_examples=400, derandomize=True, deadline=None)


@PROPERTY
@given(TEXTS)
def test_quantity_and_date_spans_round_trip(text):
    for spans in (extract_quantities(text), extract_dates(text)):
        for span in spans:
            assert 0 <= span.start < span.end <= len(text)
            assert text[span.start:span.end] == span.text
        # finditer never yields overlapping matches, so spans come in order
        assert all(a.end <= b.start for a, b in zip(spans, spans[1:]))
