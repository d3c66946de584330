"""The per-value CSV formatting that sweep.write_table must reproduce."""


def format_csv_value(x) -> str:
    """Fixed 12-significant-digit float formatting; -0 is normalized to 0."""
    v = float(x)
    if v == 0.0:
        return "0"
    return f"{v:.12g}"
