"""Unit tests for Teapot semantic analysis."""

import pytest

from repro.lang.errors import CheckError
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.protocols import load_protocol_source

from helpers import MINI_SOURCE


def check(source: str):
    return check_program(parse_program(source))


def make_program(protocol_decls="", states="", modules=""):
    return f"""
    {modules}
    Protocol T
    Begin
      Var owner : NODE;
      State S {{}};
      State W {{ C : CONT }} Transient;
      Message M;
      {protocol_decls}
    End;

    State T.S{{}}
    Begin
      Message M (id : ID; Var info : INFO; src : NODE)
      Begin
      End;
    End;

    State T.W{{C : CONT}}
    Begin
      Message M (id : ID; Var info : INFO; src : NODE)
      Begin
        Resume(C);
      End;
    End;
    {states}
    """


HANDLER_TEMPLATE = """
    Protocol T
    Begin
      Var owner : NODE;
      Var count : INT;
      Var sharers : SharerList;
      State S {{}};
      State W {{ C : CONT }} Transient;
      Message M;
      Message N;
    End;

    State T.S{{}}
    Begin
      Message M (id : ID; Var info : INFO; src : NODE)
      {locals}
      Begin
        {body}
      End;
    End;

    State T.W{{C : CONT}}
    Begin
      Message N (id : ID; Var info : INFO; src : NODE)
      Begin
        Resume(C);
      End;
    End;
"""


def check_handler(body: str, local_decls: str = ""):
    return check(HANDLER_TEMPLATE.format(body=body, locals=local_decls))


class TestDeclarations:
    def test_mini_checks(self):
        checked = check(MINI_SOURCE)
        assert checked.protocol_name == "Mini"
        assert "Home_Wait" in checked.states
        assert checked.states["Home_Wait"].is_subroutine

    def test_all_registered_protocols_check(self):
        from repro.protocols import PROTOCOLS
        for name in PROTOCOLS:
            checked = check(load_protocol_source(name))
            assert checked.states, name

    def test_duplicate_state_declaration(self):
        with pytest.raises(CheckError, match="declared twice"):
            check(make_program(protocol_decls="State S {};"))

    def test_duplicate_message_declaration(self):
        with pytest.raises(CheckError, match="declared twice"):
            check(make_program(protocol_decls="Message M;"))

    def test_undeclared_state_defined(self):
        with pytest.raises(CheckError, match="never declared"):
            check(make_program(states="State T.Ghost{} Begin End;"))

    def test_declared_state_never_defined(self):
        with pytest.raises(CheckError, match="never defined"):
            check(make_program(protocol_decls="State Ghost {};"))

    def test_state_params_must_match_declaration(self):
        source = make_program().replace(
            "State T.W{C : CONT}", "State T.W{D : CONT}")
        with pytest.raises(CheckError, match="parameters"):
            check(source)

    @pytest.mark.parametrize("protocol,state", [
        ("T", "W"), ("stache", "Home_Await_Put")])
    def test_cont_param_requires_transient(self, protocol, state):
        """A forgotten Resume cannot leave a continuation in a stable
        state, so the checker keeps no invariant for one: a state that
        takes a CONT must be Transient, and a CONT is no payload
        (test_cont_cannot_be_payload).  Stache with the home's
        put-wait state declared stable is refused too."""
        source = (make_program() if protocol == "T"
                  else load_protocol_source(protocol))
        old = f"State {state} {{ C : CONT }} Transient;"
        assert old in source
        with pytest.raises(CheckError, match=(
                f"'{state}' takes a CONT parameter and must be declared "
                "Transient")):
            check(source.replace(old, f"State {state} {{ C : CONT }};"))

    def test_sharer_builtins_need_exactly_one_sharer_list(self, tmp_path):
        """The sharer-set routines act on the protocol's one SharerList:
        stache with a second one is refused before it runs, at the first
        call, where it once checked "OK" and failed at run time."""
        from repro import api

        source = load_protocol_source("stache")
        old = "  Var sharers    : SharerList;"
        assert old in source
        path = tmp_path / "two_sharer_lists.tea"
        path.write_text(source.replace(
            old, old + "\n  Var others : SharerList;", 1))
        with pytest.raises(CheckError, match=(
                "needs exactly one SharerList protocol variable; "
                "Stache has 2")) as caught:
            api.compile_protocol(str(path))
        line = caught.value.location.line
        assert str(caught.value).startswith(f"{path}:{line}:")
        called = caught.value.message.split(": ")[1].split()[0]
        assert f"{called}(" in path.read_text().splitlines()[line - 1]

    def test_wrong_protocol_qualifier(self):
        source = make_program().replace("State T.S{}", "State Other.S{}")
        with pytest.raises(CheckError, match="belongs to protocol"):
            check(source)

    def test_unknown_type_in_protocol_var(self):
        with pytest.raises(CheckError, match="unknown type"):
            check(make_program(protocol_decls="Var x : Bogus;"))

    def test_protocol_const_must_be_literal(self):
        with pytest.raises(CheckError, match="literal"):
            check(make_program(protocol_decls="Const K := owner;"))


class TestModules:
    def test_module_function_usable(self):
        source = make_program(modules="""
        Module Help
        Begin
          Function Pick(n : NODE) : NODE;
        End;
        """)
        source = source.replace(
            "Message M (id : ID; Var info : INFO; src : NODE)\n      Begin\n      End;",
            "Message M (id : ID; Var info : INFO; src : NODE)\n"
            "      Begin\n        owner := Pick(src);\n      End;", 1)
        checked = check(source)
        assert "Pick" in checked.functions

    def test_module_cannot_redeclare_builtin(self):
        with pytest.raises(CheckError, match="redeclares a builtin"):
            check(make_program(modules="""
            Module Bad
            Begin
              Procedure Send(n : NODE);
            End;
            """))

    def test_module_cannot_redeclare_builtin_type(self):
        with pytest.raises(CheckError, match="redeclares a builtin type"):
            check(make_program(modules="""
            Module Bad
            Begin
              Type INT;
            End;
            """))


class TestHandlerSignatures:
    def test_handler_needs_three_conventional_params(self):
        source = make_program().replace(
            "Message M (id : ID; Var info : INFO; src : NODE)",
            "Message M (id : ID)", 1)
        with pytest.raises(CheckError, match="conventional"):
            check(source)

    def test_info_param_must_be_var(self):
        source = make_program().replace(
            "Message M (id : ID; Var info : INFO; src : NODE)",
            "Message M (id : ID; info : INFO; src : NODE)", 1)
        with pytest.raises(CheckError, match="must be declared Var"):
            check(source)

    def test_payload_signatures_must_agree(self):
        source = HANDLER_TEMPLATE.format(body="", locals="")
        source = source.replace(
            "Message N (id : ID; Var info : INFO; src : NODE)",
            "Message M (id : ID; Var info : INFO; src : NODE; v : INT)")
        with pytest.raises(CheckError, match="payload"):
            check(source)

    def test_duplicate_handler(self):
        source = make_program().replace(
            """Message M (id : ID; Var info : INFO; src : NODE)
      Begin
      End;""",
            """Message M (id : ID; Var info : INFO; src : NODE)
      Begin
      End;
      Message M (id : ID; Var info : INFO; src : NODE)
      Begin
      End;""", 1)
        with pytest.raises(CheckError, match="duplicate handler"):
            check(source)

    def test_handler_for_undeclared_message(self):
        source = make_program().replace(
            "Message M (id : ID; Var info : INFO; src : NODE)",
            "Message GHOST (id : ID; Var info : INFO; src : NODE)", 1)
        with pytest.raises(CheckError, match="undeclared message"):
            check(source)

    def test_default_takes_no_payload(self):
        source = make_program().replace(
            "Message M (id : ID; Var info : INFO; src : NODE)",
            "Message DEFAULT (id : ID; Var info : INFO; src : NODE; "
            "x : INT)", 1)
        with pytest.raises(CheckError, match="DEFAULT"):
            check(source)


class TestExpressionTyping:
    def test_arith_needs_ints(self):
        with pytest.raises(CheckError, match="integer operands"):
            check_handler("count := src + 1;")

    def test_node_comparison_ok(self):
        check_handler("If (src = owner) Then Endif;")

    def test_cannot_compare_node_with_int(self):
        with pytest.raises(CheckError, match="compare"):
            check_handler("If (src = 3) Then Endif;")

    def test_logic_needs_bools(self):
        with pytest.raises(CheckError, match="boolean operands"):
            check_handler("If (count And True) Then Endif;")

    def test_condition_must_be_bool(self):
        with pytest.raises(CheckError, match="must be BOOL"):
            check_handler("If (count) Then Endif;")

    def test_while_condition_must_be_bool(self):
        with pytest.raises(CheckError, match="must be BOOL"):
            check_handler("While (count) Do End;")

    def test_undefined_name(self):
        with pytest.raises(CheckError, match="undefined name"):
            check_handler("count := mystery;")

    def test_assign_to_const_rejected(self):
        with pytest.raises(CheckError, match="cannot assign"):
            check_handler("MyNode := src;")

    def test_assign_type_mismatch(self):
        with pytest.raises(CheckError, match="cannot assign"):
            check_handler("owner := 5;")

    def test_int_like_types_interconvert(self):
        check_handler("count := ReadWord(id, 0);")

    def test_function_as_statement_rejected(self):
        with pytest.raises(CheckError, match="used as a statement"):
            check_handler("HomeNode(id);")

    def test_procedure_in_expression_rejected(self):
        with pytest.raises(CheckError, match="returns no value"):
            check_handler("count := WakeUp(id);")

    def test_unknown_function(self):
        with pytest.raises(CheckError, match="undefined function"):
            check_handler("count := Mystery(1);")

    def test_message_tag_comparison(self):
        check_handler("If (MessageTag = M) Then Endif;")

    def test_handlers_return_bare_only(self):
        with pytest.raises(CheckError, match="may not return a value"):
            check_handler("Return 5;")


class TestBuiltinCalls:
    def test_send_arity(self):
        with pytest.raises(CheckError, match="at least 3"):
            check_handler("Send(src, M);")

    def test_send_payload_checked_against_message(self):
        # N's handlers declare no payload, so sending one is an error.
        with pytest.raises(CheckError, match="payload"):
            check_handler("Send(src, N, id, 42);")

    def test_send_undeclared_message(self):
        with pytest.raises(CheckError, match="GHOST"):
            check_handler("Send(src, GHOST, id);")

    def test_setstate_needs_state_constructor(self):
        with pytest.raises(CheckError, match="state constructor"):
            check_handler("SetState(info, 3);")

    def test_state_constructor_arity(self):
        with pytest.raises(CheckError, match="takes 1 arguments"):
            check_handler("SetState(info, W{});")

    def test_access_change_type(self):
        with pytest.raises(CheckError):
            check_handler("AccessChange(id, 5);")

    def test_cont_cannot_be_payload(self):
        source = HANDLER_TEMPLATE.format(
            body="Suspend(L, W{L});\nSend(src, M, id, L);", locals="")
        with pytest.raises(CheckError, match="payload"):
            check(source)


class TestSuspendResume:
    def test_suspend_target_must_be_transient(self):
        with pytest.raises(CheckError, match="Transient"):
            check_handler("Suspend(L, S{});")

    def test_suspend_must_pass_continuation(self):
        source = HANDLER_TEMPLATE.format(body="", locals="")
        source = source.replace(
            "State W {{ C : CONT }} Transient;", "", 1)
        # Build a program where the suspend target drops the cont.
        source2 = HANDLER_TEMPLATE.replace(
            "Resume(C);", "Resume(C);").format(
                body="Suspend(L, W{L});", locals="")
        check(source2)  # passing L is fine
        bad = HANDLER_TEMPLATE.format(
            body="owner := src;\nSuspend(L, W{L});", locals="")
        bad = bad.replace("Suspend(L, W{L})", "Suspend(L, W{C2})")
        with pytest.raises(CheckError):
            check(bad)

    def test_resume_needs_cont(self):
        with pytest.raises(CheckError, match="continuation"):
            check_handler("Resume(count);")

    def test_suspend_cont_shadowing_rejected(self):
        with pytest.raises(CheckError, match="rebinds"):
            check_handler("Suspend(count, W{count});")

    def test_nested_suspends_allowed(self):
        check_handler("Suspend(L, W{L});\nSuspend(L2, W{L2});")

    def test_suspend_in_loop_allowed(self):
        check_handler(
            "While (count > 0) Do\nSuspend(L, W{L});\n"
            "count := count - 1;\nEnd;")

    def test_scope_info_collected(self):
        checked = check(MINI_SOURCE)
        scope = checked.handler_scopes[("Home_Idle", "GET_REQ")]
        assert scope.lookup("owner") is not None
        assert scope.lookup("L") is not None
        assert scope.lookup("L").type_name == "CONT"
