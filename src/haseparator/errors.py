"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An array argument has the wrong rank or incompatible dimensions."""


class LabelError(ValueError):
    """A class label is out of range or otherwise unusable."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class DivergenceError(ConfigError):
    """Training reached a non-finite loss; the message names the step."""


class DataFormatError(ValueError):
    """A delimited data file cannot be parsed."""


class RaggedRowError(DataFormatError):
    """Rows of a delimited file have inconsistent field counts."""


class NonNumericCellError(DataFormatError):
    """A feature cell of a delimited file is not numeric."""


class CheckpointError(ValueError):
    """A model checkpoint file is malformed."""
