"""Exception hierarchy shared across the analyzer."""


class RicError(Exception):
    """Base class for all analyzer errors."""


class UnterminatedStatement(RicError):
    """An `asm (` without a matching closing parenthesis."""

    def __init__(self, span, message="unterminated asm statement"):
        super().__init__(message)
        self.span = span


class MalformedInterface(RicError):
    """Interface section of an asm statement does not parse."""


class BadConstraintChar(RicError):
    """Constraint string contains a character outside the supported alphabet."""


class SchemaViolation(RicError):
    """Chunk file record violates the schema."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.field_path = path


class UnknownLetter(RicError):
    """Constraint letter not in the supported i386 table."""

    def __init__(self, letter):
        super().__init__(f"unknown constraint letter {letter!r}")
        self.letter = letter


class ModeMissing(RicError):
    """Output entry whose constraint lacks '=' or '+'."""


class ClobberOverlap(RicError):
    """A clobber names a register already forced by an operand constraint."""


class OutOfScope(RicError):
    """Template uses a construct outside the supported subset."""


class UnknownMnemonic(OutOfScope):
    """Template uses an instruction outside the supported subset."""

    def __init__(self, mnemonic):
        super().__init__(f"unsupported mnemonic {mnemonic!r}")
        self.mnemonic = mnemonic


class BadTokenRef(RicError):
    """Template references an operand position that does not exist."""


class MissingToken(RicError):
    """Token assignment does not cover a token used by the program."""


class WidthError(RicError):
    """IR expression or program fails the width discipline."""


class StepLimit(RicError):
    """Concrete execution exceeded its step budget."""


class OutOfSandbox(RicError):
    """Concrete execution touched memory outside the sandbox. `steps`
    counts the execution steps taken, the one that touched it included."""

    def __init__(self, address):
        super().__init__(f"memory access outside sandbox at {address:#x}")
        self.address = address
        self.steps = 0
