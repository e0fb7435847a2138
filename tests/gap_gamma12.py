"""Test data shared by test_modular and test_rep."""

# The 19 normal generators of Gamma(12) that the GAP package Congruence
# computes, each with its matrix and S/T word: a cross-check, run by no suite.
# gamma12_generators() returns the words of P1+ and P6, and verify kernel proves
# that those two suffice.
GAP_GAMMA12 = (
    ("P1+", (1, 12, 0, 1), "T12"),
    ("P1-", (1, -12, 0, 1), "T-12"),
    ("P2", (-143, 12, -12, 1), "SST12ST12S"),
    ("P3", (-155, 84, -24, 13), "SST7ST2ST7ST2S"),
    ("P4", (-191, 156, -60, 49), "SST3ST-5ST2ST-4ST1S"),
    ("P5", (-443, 120, -48, 13), "T9ST-4ST3ST4S"),
    ("P6", (-467, 360, -48, 37), "T10ST4ST3ST-3ST1S"),
    ("P7", (-299, 108, -36, 13), "T8ST-3ST4ST3S"),
    ("P8", (-311, 216, -36, 25), "T9ST3ST4ST-2ST1S"),
    ("P9", (937, -396, 168, -71), "T5ST-2ST-4ST-4ST-3ST2S"),
    ("P10", (157, -36, 48, -11), "T3ST-4ST-3ST4S"),
    ("P11", (157, -48, 36, -11), "T4ST-3ST-4ST3S"),
    ("P12", (205, -84, 144, -59), "T1ST-2ST3ST4ST-2ST2S"),
    ("P13", (157, -72, 24, -11), "T6ST-2ST-6ST2S"),
    ("P14", (229, -132, 144, -83), "T1ST-2ST-3ST4ST4ST2S"),
    ("P15", (169, -108, 36, -23), "SST5ST3ST-3ST2ST2S"),
    ("P16", (181, -132, 48, -35), "T4ST4ST-3ST-3ST1S"),
    ("P17", (589, -108, 60, -11), "SST10ST5ST-2ST5S"),
    ("P18", (649, -384, 120, -71), "T5ST-2ST2ST-4ST3ST2S"),
)
