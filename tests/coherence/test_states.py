"""TMESI state encodings and transforms (Figure 1)."""


from repro.coherence.states import LineState


def test_encoding_table_matches_figure1():
    assert LineState.I.encoding == (0, 0, 0)
    assert LineState.S.encoding == (0, 1, 0)
    assert LineState.M.encoding == (1, 0, 0)
    assert LineState.E.encoding == (1, 1, 0)
    assert LineState.TMI.encoding == (1, 0, 1)
    assert LineState.TI.encoding == (0, 0, 1)


def test_t_bit_marks_transactional_states():
    for state in LineState:
        assert state.is_transactional == (state.encoding[2] == 1)


def test_commit_transform():
    """TMI -> M (speculation becomes real), TI -> I (copy may be stale)."""
    assert LineState.TMI.after_commit() is LineState.M
    assert LineState.TI.after_commit() is LineState.I
    for state in (LineState.M, LineState.E, LineState.S, LineState.I):
        assert state.after_commit() is state


def test_abort_transform():
    """Both transactional states discard to I."""
    assert LineState.TMI.after_abort() is LineState.I
    assert LineState.TI.after_abort() is LineState.I
    for state in (LineState.M, LineState.E, LineState.S, LineState.I):
        assert state.after_abort() is state


def test_validity():
    assert not LineState.I.is_valid
    for state in LineState:
        if state is not LineState.I:
            assert state.is_valid
