"""Desk-scale compression of a small encoder transformer: importance-guided
adaptation of FFNs into a mixture of experts, trained with layer-wise
knowledge distillation."""
