void f() {
  int a;
  int b;
  a = 0;
  b = 0;
  g(&b);
  print(a + b);
}
