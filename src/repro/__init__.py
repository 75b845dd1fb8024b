"""Reproduction of HAAN (DATE 2025): accelerating normalization in LLMs.

Package layout
--------------

* :mod:`repro.numerics` -- fixed-point / floating-point formats, FP<->FX
  converters, fast inverse square root, quantization.
* :mod:`repro.llm` -- the NumPy LLM substrate (transformer engine, model
  zoo, tokenizer, synthetic corpora and tasks).
* :mod:`repro.core` -- the HAAN algorithm: ISD skipping (Algorithm 1),
  log-linear ISD prediction, subsampling, the HAAN normalization layer and
  the calibration pipeline.
* :mod:`repro.hardware` -- the HAAN accelerator model (datapath units,
  memory layout, pipeline, FPGA resource/power models) and the DFX / SOLE /
  MHAA / GPU baselines.
* :mod:`repro.eval` -- accuracy, perplexity, latency-breakdown and
  end-to-end harnesses plus the experiment registry mapping every table and
  figure of the paper to a callable.
* :mod:`repro.serving` -- the online serving runtime: continuous
  batching of normalization requests, the calibration artifact
  registry, telemetry, and the ``haan-serve`` CLI.
* :mod:`repro.api` -- the versioned public client/server API:
  ``NormClient`` with in-process and socket transports, ``AsyncNormServer``
  (``haan-serve --listen``), the wire envelopes, and the ``haan-client``
  CLI; the engine's ``remote`` backend rides the same protocol.
"""

__version__ = "1.2.0"

__all__ = ["numerics", "llm", "core", "hardware", "eval", "serving", "api", "__version__"]
